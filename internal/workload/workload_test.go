package workload

import (
	"bytes"
	"testing"

	"cachewrite/internal/memsim"
	"cachewrite/internal/trace"
)

func TestRegistryNames(t *testing.T) {
	names := Names()
	if len(names) != 6 {
		t.Fatalf("registered %d workloads, want 6: %v", len(names), names)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Names() not sorted: %v", names)
		}
	}
	for _, n := range PaperOrder() {
		if _, err := Get(n); err != nil {
			t.Errorf("paper benchmark %q not registered: %v", n, err)
		}
	}
}

func TestGetUnknown(t *testing.T) {
	if _, err := Get("nosuch"); err == nil {
		t.Fatal("unknown workload returned no error")
	}
	if _, err := Generate("nosuch", 1); err == nil {
		t.Fatal("Generate of unknown workload returned no error")
	}
}

func TestDescriptions(t *testing.T) {
	for _, n := range Names() {
		w, err := Get(n)
		if err != nil {
			t.Fatal(err)
		}
		if w.Name() != n {
			t.Errorf("workload %q reports name %q", n, w.Name())
		}
		if w.Description() == "" {
			t.Errorf("workload %q has no description", n)
		}
	}
}

// smallTrace generates the named workload at scale 1 and keeps the
// events within its first limit instructions, so per-workload tests
// check a bounded prefix.
func smallTrace(t *testing.T, name string, limit uint64) *trace.Trace {
	t.Helper()
	tr, err := Generate(name, 1)
	if err != nil {
		t.Fatal(err)
	}
	var executed uint64
	for i, e := range tr.Events {
		executed += e.Instructions()
		if executed > limit {
			return tr.Slice(0, i)
		}
	}
	return tr
}

func TestAllWorkloadsProduceValidTraces(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			tr := smallTrace(t, name, 300_000)
			if tr.Len() == 0 {
				t.Fatal("empty trace")
			}
			if err := tr.Validate(); err != nil {
				t.Fatalf("invalid trace: %v", err)
			}
			s := tr.Stats()
			if s.Reads == 0 || s.Writes == 0 {
				t.Errorf("reads=%d writes=%d; want both non-zero", s.Reads, s.Writes)
			}
			for i, e := range tr.Events {
				if e.Size != 4 && e.Size != 8 {
					t.Fatalf("event %d has size %d; want 4 or 8 (word machine)", i, e.Size)
				}
			}
		})
	}
}

func TestDeterminism(t *testing.T) {
	for _, name := range Names() {
		a := smallTrace(t, name, 150_000)
		b := smallTrace(t, name, 150_000)
		if a.Len() != b.Len() {
			t.Fatalf("%s: lengths differ: %d vs %d", name, a.Len(), b.Len())
		}
		var bufA, bufB bytes.Buffer
		if err := trace.WriteBinary(&bufA, a); err != nil {
			t.Fatal(err)
		}
		if err := trace.WriteBinary(&bufB, b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(bufA.Bytes(), bufB.Bytes()) {
			t.Fatalf("%s: traces differ between runs", name)
		}
	}
}

func TestGenerateAllOrder(t *testing.T) {
	// GenerateAllCached with no cache directory generates in parallel;
	// the experiments tests exercise it at full scale. Here just check
	// the order contract with one call.
	ts, err := GenerateAllCached("", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 6 {
		t.Fatalf("GenerateAllCached returned %d traces", len(ts))
	}
	for i, name := range PaperOrder() {
		if ts[i].Name != name {
			t.Errorf("trace %d is %q, want %q", i, ts[i].Name, name)
		}
	}
}

func TestRNGDeterministicAndBounded(t *testing.T) {
	a, b := newRNG(42), newRNG(42)
	for i := 0; i < 1000; i++ {
		if a.next() != b.next() {
			t.Fatal("same-seed RNGs diverge")
		}
	}
	r := newRNG(7)
	for i := 0; i < 1000; i++ {
		if v := r.intn(10); v < 0 || v >= 10 {
			t.Fatalf("intn(10) = %d", v)
		}
		if f := r.f64(); f < 0 || f >= 1 {
			t.Fatalf("f64() = %v", f)
		}
	}
	// Zero seed must still work (remapped internally).
	z := newRNG(0)
	if z.next() == 0 && z.next() == 0 {
		t.Error("zero-seeded RNG looks stuck")
	}
}

func TestRNGIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("intn(0) did not panic")
		}
	}()
	newRNG(1).intn(0)
}

func TestClampScale(t *testing.T) {
	if clampScale(0) != 1 || clampScale(-5) != 1 || clampScale(3) != 3 {
		t.Error("clampScale wrong")
	}
}

// TestLinpackSolvesSystem checks that the traced LU decomposition
// actually solves linear systems: A x = b with known solution.
func TestLinpackSolvesSystem(t *testing.T) {
	m := memsim.New("lin")
	const n = 5
	a := m.NewF64Array(n * n)
	b := m.NewF64Array(n)
	ipvt := m.NewU32Array(n)
	at := func(i, j int) int { return j*n + i }

	// A = diag-dominant matrix, x_true = [1, 2, 3, 4, 5].
	xTrue := []float64{1, 2, 3, 4, 5}
	r := newRNG(99)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			v := r.f64() - 0.5
			if i == j {
				v += float64(n)
			}
			a.Set(at(i, j), v)
		}
	}
	for i := 0; i < n; i++ {
		sum := 0.0
		for j := 0; j < n; j++ {
			sum += a.Peek(at(i, j)) * xTrue[j]
		}
		b.Set(i, sum)
	}

	dgefa(m, a, ipvt, n, at)
	dgesl(m, a, b, ipvt, n, at)

	for i := 0; i < n; i++ {
		got := b.Peek(i)
		if diff := got - xTrue[i]; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("x[%d] = %v, want %v", i, got, xTrue[i])
		}
	}
}

// TestYaccParsesExpression drives the LR automaton over a hand-built
// token stream and checks the computed value: 2 + 3 * 4 = 14.
func TestYaccParsesExpression(t *testing.T) {
	m := memsim.New("y")
	action := m.NewU32ArrayStatic(yaccStates * yNumTerms)
	gotoTab := m.NewU32ArrayStatic(yaccStates * yNumNonterms)
	for s := 0; s < yaccStates; s++ {
		for tt := 0; tt < yNumTerms; tt++ {
			action.Poke(s*yNumTerms+tt, slrAction[s][tt])
		}
		for nt := 0; nt < yNumNonterms; nt++ {
			gotoTab.Poke(s*yNumNonterms+nt, slrGoto[s][nt])
		}
	}
	input := m.NewU32Array(32)
	toks := []struct{ k, v uint32 }{
		{yID, 2}, {yPlus, 0}, {yID, 3}, {yStar, 0}, {yID, 4}, {yEOF, 0},
	}
	for i, tk := range toks {
		input.Poke(2*i, tk.k)
		input.Poke(2*i+1, tk.v)
	}
	stateStack := m.NewU32ArrayStack(yaccStackMax)
	valueStack := m.NewU32ArrayStack(yaccStackMax)
	got := parseLR(m, action, gotoTab, input, len(toks), stateStack, valueStack)
	if got != 14 {
		t.Errorf("2 + 3 * 4 parsed to %d, want 14 (precedence broken)", got)
	}
}

// TestYaccParentheses checks that parentheses override precedence:
// (2 + 3) * 4 = 20.
func TestYaccParentheses(t *testing.T) {
	m := memsim.New("y")
	action := m.NewU32ArrayStatic(yaccStates * yNumTerms)
	gotoTab := m.NewU32ArrayStatic(yaccStates * yNumNonterms)
	for s := 0; s < yaccStates; s++ {
		for tt := 0; tt < yNumTerms; tt++ {
			action.Poke(s*yNumTerms+tt, slrAction[s][tt])
		}
		for nt := 0; nt < yNumNonterms; nt++ {
			gotoTab.Poke(s*yNumNonterms+nt, slrGoto[s][nt])
		}
	}
	input := m.NewU32Array(32)
	toks := []struct{ k, v uint32 }{
		{yLParen, 0}, {yID, 2}, {yPlus, 0}, {yID, 3}, {yRParen, 0},
		{yStar, 0}, {yID, 4}, {yEOF, 0},
	}
	for i, tk := range toks {
		input.Poke(2*i, tk.k)
		input.Poke(2*i+1, tk.v)
	}
	got := parseLR(m, action, gotoTab, input, len(toks),
		m.NewU32ArrayStack(yaccStackMax), m.NewU32ArrayStack(yaccStackMax))
	if got != 20 {
		t.Errorf("(2 + 3) * 4 parsed to %d, want 20", got)
	}
}

// TestCcomPipeline compiles "a = 2 + 3 * 4 ;" end to end and checks the
// compiler computes 14 into symbol a.
func TestCcomPipeline(t *testing.T) {
	m := memsim.New("cc")
	src := m.NewU32Array(64)
	text := "a = 2 + 3 * 4 ;\n"
	for i := 0; i < len(text); i++ {
		src.Poke(i, uint32(text[i]))
	}
	src.Poke(len(text), 0)

	toks := m.NewU32Array(64)
	nTok := lex(m, src, len(text)+1, toks)
	// Tokens: ident, =, 2, +, 3, *, 4, ;, EOF = 9.
	if nTok != 9 {
		t.Fatalf("lex produced %d tokens, want 9", nTok)
	}
	ast := m.NewU32Array(64 * 4)
	p := &ccomParser{m: m, toks: toks, nTok: nTok, ast: ast}
	roots := p.parseProgram()
	if len(roots) != 1 {
		t.Fatalf("parsed %d statements, want 1", len(roots))
	}
	folded := m.NewU32Array(64 * 4)
	fold(m, ast, folded, roots, p.nNode)
	// The whole expression is constant: the root's rhs should fold to
	// opNum 14.
	rhs := folded.Peek(int(roots[0])*4 + 2)
	if op := folded.Peek(int(rhs) * 4); op != opNum {
		t.Errorf("rhs op after fold = %d, want opNum", op)
	}
	if v := folded.Peek(int(rhs)*4 + 3); v != 14 {
		t.Errorf("folded value = %d, want 14 (precedence broken)", v)
	}
	code := m.NewU32Array(64 * 2)
	syms := m.NewU32Array(64)
	pc := emit(m, folded, roots, code, syms)
	if pc == 0 {
		t.Fatal("no code emitted")
	}
	if got := syms.Peek(0); got != 14 {
		t.Errorf("symbol a = %d, want 14", got)
	}
	if got := verify(m, code, pc, syms); got != 14 {
		t.Errorf("verify recomputed %d, want 14", got)
	}
}

// TestCcomFoldPreservesVariables checks that non-constant expressions
// survive folding: "a = b + 1" keeps its opAdd.
func TestCcomFoldPreservesVariables(t *testing.T) {
	m := memsim.New("cc")
	src := m.NewU32Array(32)
	text := "a = b + 1 ;\n"
	for i := 0; i < len(text); i++ {
		src.Poke(i, uint32(text[i]))
	}
	src.Poke(len(text), 0)
	toks := m.NewU32Array(64)
	nTok := lex(m, src, len(text)+1, toks)
	ast := m.NewU32Array(64 * 4)
	p := &ccomParser{m: m, toks: toks, nTok: nTok, ast: ast}
	roots := p.parseProgram()
	folded := m.NewU32Array(64 * 4)
	fold(m, ast, folded, roots, p.nNode)
	rhs := folded.Peek(int(roots[0])*4 + 2)
	if op := folded.Peek(int(rhs) * 4); op != opAdd {
		t.Errorf("rhs op after fold = %d, want opAdd preserved", op)
	}
}

// TestGrrRoutesNet checks the maze router finds and commits a path on
// an empty board.
func TestGrrRoutesNet(t *testing.T) {
	m := memsim.New("g")
	grid := m.NewU32Array(grrW * grrH)
	queue := m.NewU32Array(grrQueue)
	if !routeNet(m, grid, queue, 1, 1, 1, 10, 8) {
		t.Fatal("no route found on an empty board")
	}
	// The target must have been committed.
	if grid.Peek(8*grrW+10)&grrRouted == 0 {
		t.Error("target cell not marked routed")
	}
	if grid.Peek(1*grrW+1)&grrRouted == 0 {
		t.Error("source cell not marked routed")
	}
	// Routed cells must form a connected path of the right length: at
	// least the Manhattan distance (9+7+1 cells).
	count := 0
	for i := 0; i < grid.Len(); i++ {
		if grid.Peek(i)&grrRouted != 0 {
			count++
		}
	}
	if count < 17 {
		t.Errorf("%d routed cells, want >= 17 (Manhattan path)", count)
	}
}

// TestGrrBlockedTarget checks that a fully-walled target is unreachable.
func TestGrrBlockedTarget(t *testing.T) {
	m := memsim.New("g")
	grid := m.NewU32Array(grrW * grrH)
	queue := m.NewU32Array(grrQueue)
	tx, ty := 10, 10
	for _, d := range [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
		grid.Poke((ty+d[1])*grrW+tx+d[0], grrObstacle)
	}
	if routeNet(m, grid, queue, 2, 1, 1, tx, ty) {
		t.Fatal("routed through obstacles")
	}
}

// TestGrrObstacleEndpoint checks obstacle endpoints fail immediately.
func TestGrrObstacleEndpoint(t *testing.T) {
	m := memsim.New("g")
	grid := m.NewU32Array(grrW * grrH)
	queue := m.NewU32Array(grrQueue)
	grid.Poke(5*grrW+5, grrObstacle)
	if routeNet(m, grid, queue, 3, 5, 5, 1, 1) {
		t.Fatal("routed from an obstacle cell")
	}
	before := m.Trace().Len()
	if routeNet(m, grid, queue, 4, 1, 1, 5, 5) {
		t.Fatal("routed to an obstacle cell")
	}
	// The obstacle check happens before any traced work.
	if m.Trace().Len() != before {
		t.Error("endpoint check should be untraced (tag probe happens in registers)")
	}
}

// TestWorkloadCharacteristics pins the coarse Table 1 shape: every
// benchmark's load:store ratio is within a plausible band and grr is
// the largest trace, as in the paper.
func TestWorkloadCharacteristics(t *testing.T) {
	ts, err := GenerateAllCached("", 1)
	if err != nil {
		t.Fatal(err)
	}
	var totalReads, totalWrites uint64
	maxRefs, maxName := uint64(0), ""
	for _, tr := range ts {
		s := tr.Stats()
		ratio := s.LoadStoreRatio()
		if ratio < 0.7 || ratio > 6 {
			t.Errorf("%s: load:store ratio %.2f outside [0.7, 6]", tr.Name, ratio)
		}
		if s.Refs() > maxRefs {
			maxRefs, maxName = s.Refs(), tr.Name
		}
		totalReads += s.Reads
		totalWrites += s.Writes
	}
	overall := float64(totalReads) / float64(totalWrites)
	if overall < 1.5 || overall > 3.5 {
		t.Errorf("overall load:store ratio %.2f; paper has 2.4", overall)
	}
	if maxName != "grr" {
		t.Errorf("largest trace is %s, want grr (as in Table 1)", maxName)
	}
}
