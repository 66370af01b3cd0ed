package simlint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
)

// CallGraph is the module-wide static call-graph fact layer shared by
// every analyzer in a run. It is built once over all loaded packages —
// before any collect or run phase — so cross-package questions
// ("does this call transitively block?", "is this counter read from an
// exported stats emitter?") have one answer no matter which package is
// being checked.
//
// Nodes are keyed by the callee's canonical FullName (generic methods
// are canonicalized through types.Func.Origin, so a call to
// (*Journal[persistedState]).Save and the declaration of
// (*Journal[T]).Save meet at the same node — string keys, not object
// identity, because each package resolves its imports from compiled
// export data and never shares *types.Func pointers with the source-
// checked package).
//
// Edges record synchronous calls only: a call inside a `go` statement
// (or inside a function literal that is launched by one) starts a new
// goroutine and neither blocks the caller nor returns it an error, so
// it must not propagate either fact. Deferred calls and calls inside
// other function literals run on the caller's goroutine and are
// included, attributed to the enclosing declaration.
//
// The graph also records function-value bindings: every site that
// stores a statically known function into a variable or struct field
// of function type (assignment, var declaration, keyed composite
// literal). Analyzers use Bindings to resolve indirect calls through
// such slots — the hotpath analyzer resolves the kernel-dispatch
// pattern this way instead of skipping it.
type CallGraph struct {
	callees map[string]map[string]bool // caller FullName -> callee FullNames
	callers map[string]map[string]bool // reverse edges
	decls   map[string]*FuncInfo       // FullName -> declaration info
	binds   map[string]*bindSet        // func-typed slot key -> bound functions
	pkgs    []*Package                 // every package the graph was built over

	memo map[string]map[string]bool // analyzer-keyed closure cache
}

// FuncInfo is one declared function in the loaded packages.
type FuncInfo struct {
	// Obj is the source-checked function object.
	Obj *types.Func
	// Decl is the declaration (Body may be nil for assembly stubs).
	Decl *ast.FuncDecl
	// Pkg is the package declaring the function.
	Pkg *Package
}

// bindSet is every statically known function stored into one
// function-typed slot, plus whether any store was unresolvable (a
// closure, a call result, a parameter) — in which case the slot's
// callee set is unknown and analyzers must fall back to their
// dynamic-call behavior.
type bindSet struct {
	funcs   []*types.Func
	tainted bool
}

// canonFunc canonicalizes a function object: methods of generic
// instantiations map to their generic origin so call sites and
// declarations share one FullName.
func canonFunc(fn *types.Func) *types.Func {
	if fn == nil {
		return nil
	}
	return fn.Origin()
}

// FuncKey is the canonical node key for a function object.
func FuncKey(fn *types.Func) string { return canonFunc(fn).FullName() }

// BuildCallGraph constructs the fact layer over the loaded packages.
func BuildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{
		callees: map[string]map[string]bool{},
		callers: map[string]map[string]bool{},
		decls:   map[string]*FuncInfo{},
		binds:   map[string]*bindSet{},
		memo:    map[string]map[string]bool{},
		pkgs:    pkgs,
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				obj, ok := pkg.Info.Defs[fn.Name].(*types.Func)
				if !ok {
					continue
				}
				key := FuncKey(obj)
				g.decls[key] = &FuncInfo{Obj: obj, Decl: fn, Pkg: pkg}
				if fn.Body != nil {
					g.walkBody(pkg, key, fn.Body)
				}
			}
		}
		g.collectBindings(pkg)
	}
	return g
}

// walkBody records the synchronous call edges and skips goroutine
// launches: `go f(...)` contributes neither the edge to f nor, when f
// is a literal, the calls inside its body.
func (g *CallGraph) walkBody(pkg *Package, caller string, body ast.Node) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			// The spawned call runs on its own goroutine; its arguments,
			// however, are evaluated synchronously.
			for _, arg := range n.Call.Args {
				g.walkBody(pkg, caller, arg)
			}
			return false
		case *ast.CallExpr:
			if fn := usedFunc(pkg.Info, n); fn != nil {
				g.addEdge(caller, FuncKey(fn))
			}
		}
		return true
	})
}

func (g *CallGraph) addEdge(caller, callee string) {
	set := g.callees[caller]
	if set == nil {
		set = map[string]bool{}
		g.callees[caller] = set
	}
	set[callee] = true
	rev := g.callers[callee]
	if rev == nil {
		rev = map[string]bool{}
		g.callers[callee] = rev
	}
	rev[caller] = true
}

// collectBindings records function values stored into variables and
// struct fields of function type.
func (g *CallGraph) collectBindings(pkg *Package) {
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) != len(n.Rhs) {
					return true
				}
				for i, lhs := range n.Lhs {
					g.bind(pkg, lhs, n.Rhs[i])
				}
			case *ast.ValueSpec:
				if len(n.Names) != len(n.Values) {
					return true
				}
				for i, name := range n.Names {
					g.bind(pkg, name, n.Values[i])
				}
			case *ast.CompositeLit:
				tv, ok := pkg.Info.Types[n]
				if !ok {
					return true
				}
				if _, isStruct := tv.Type.Underlying().(*types.Struct); !isStruct {
					return true
				}
				named := namedOf(tv.Type)
				for _, elt := range n.Elts {
					kv, ok := elt.(*ast.KeyValueExpr)
					if !ok {
						continue
					}
					id, ok := kv.Key.(*ast.Ident)
					if !ok {
						continue
					}
					v, ok := pkg.Info.Uses[id].(*types.Var)
					if !ok {
						v, ok = pkg.Info.Defs[id].(*types.Var)
					}
					if !ok || !isFuncType(v.Type()) {
						continue
					}
					// Key by the literal's named type so the store meets
					// selector-based calls (`table.op(x)`) on the same slot.
					slot := fieldFallbackKey(v)
					if named != nil {
						slot = fieldKey(named, id.Name)
					}
					g.bindValue(pkg, slot, kv.Value)
				}
			}
			return true
		})
	}
}

// bind records one store of value into slot when the slot has function
// type. An unresolvable value taints the slot.
func (g *CallGraph) bind(pkg *Package, slot, value ast.Expr) {
	key, ok := slotKey(pkg, slot)
	if !ok {
		return
	}
	g.bindValue(pkg, key, value)
}

// bindValue records one store into a pre-resolved slot key.
func (g *CallGraph) bindValue(pkg *Package, key string, value ast.Expr) {
	set := g.binds[key]
	if set == nil {
		set = &bindSet{}
		g.binds[key] = set
	}
	switch v := ast.Unparen(value).(type) {
	case *ast.Ident:
		if fn, ok := pkg.Info.Uses[v].(*types.Func); ok {
			set.funcs = append(set.funcs, fn)
			return
		}
		if b, ok := pkg.Info.Types[v]; ok && b.IsNil() {
			return // clearing the slot binds nothing
		}
	case *ast.SelectorExpr:
		if fn, ok := pkg.Info.Uses[v.Sel].(*types.Func); ok {
			// Method values (x.M where M has a receiver) close over x and
			// are still a statically known callee for analysis purposes.
			set.funcs = append(set.funcs, fn)
			return
		}
	}
	set.tainted = true
}

// slotKey names a function-typed variable or field so stores and calls
// meet: fields key as "<pkg>.<Type>.<field>" (stable across packages),
// package vars as "<pkg>.<name>", locals by declaration position.
func slotKey(pkg *Package, expr ast.Expr) (string, bool) {
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		obj := pkg.Info.Uses[e]
		if obj == nil {
			obj = pkg.Info.Defs[e]
		}
		v, ok := obj.(*types.Var)
		if !ok || !isFuncType(v.Type()) {
			return "", false
		}
		if v.IsField() {
			// A bare field ident with no recoverable owner type (composite
			// literals resolve their keys against the literal's type in
			// collectBindings instead): fall back to a position key scoped
			// to the defining package.
			return fieldFallbackKey(v), true
		}
		if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Path() + "." + v.Name(), true
		}
		return localKey(v), true
	case *ast.SelectorExpr:
		sel, ok := pkg.Info.Selections[e]
		if !ok {
			// Qualified package-level var: pkg.Var.
			if v, ok := pkg.Info.Uses[e.Sel].(*types.Var); ok && isFuncType(v.Type()) && v.Pkg() != nil && !v.IsField() {
				return v.Pkg().Path() + "." + v.Name(), true
			}
			return "", false
		}
		v, ok := sel.Obj().(*types.Var)
		if !ok || !v.IsField() || !isFuncType(v.Type()) {
			return "", false
		}
		if named := namedOf(sel.Recv()); named != nil {
			return fieldKey(named, v.Name()), true
		}
		return fieldFallbackKey(v), true
	}
	return "", false
}

// fieldKey names a struct field slot.
func fieldKey(named *types.Named, field string) string {
	obj := named.Obj()
	path := ""
	if obj.Pkg() != nil {
		path = obj.Pkg().Path()
	}
	return path + "." + obj.Name() + "." + field
}

// fieldFallbackKey keys a field by its declaring package and position
// when the owning named type is not recoverable at the use site (e.g.
// a composite-literal key ident). Position-keyed stores and selector
// uses of the same field then disagree; resolveCall treats an unknown
// slot as dynamic, which is the safe direction.
func fieldFallbackKey(v *types.Var) string {
	path := ""
	if v.Pkg() != nil {
		path = v.Pkg().Path()
	}
	return path + ".field@" + posKey(v.Pos())
}

func localKey(v *types.Var) string {
	path := ""
	if v.Pkg() != nil {
		path = v.Pkg().Path()
	}
	return path + ".local@" + posKey(v.Pos())
}

func posKey(p token.Pos) string { return strconv.Itoa(int(p)) }

func isFuncType(t types.Type) bool {
	_, ok := t.Underlying().(*types.Signature)
	return ok
}

// namedOf unwraps pointers to the named type, if any.
func namedOf(t types.Type) *types.Named {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Named:
			return u
		case *types.Alias:
			t = types.Unalias(t)
		default:
			return nil
		}
	}
}

// Decl returns the declaration info for a function key, or nil when
// the function is not declared in the loaded packages (stdlib,
// interface methods).
func (g *CallGraph) Decl(key string) *FuncInfo { return g.decls[key] }

// Callers returns the functions that synchronously call the given
// function key.
func (g *CallGraph) Callers(key string) map[string]bool { return g.callers[key] }

// Decls exposes every declared function for whole-module scans (seed
// computation for analyzer closures).
func (g *CallGraph) Decls() map[string]*FuncInfo { return g.decls }

// Packages returns every package the graph was built over, for
// analyzers whose question spans declarations other than functions.
func (g *CallGraph) Packages() []*Package { return g.pkgs }

// Memo caches an analyzer-computed set under key for the lifetime of
// the run, so per-package passes share one module-wide computation.
func (g *CallGraph) Memo(key string, compute func() map[string]bool) map[string]bool {
	if got, ok := g.memo[key]; ok {
		return got
	}
	v := compute()
	g.memo[key] = v
	return v
}

// Bindings resolves an indirect call through a function-typed variable
// or field: the statically known functions stored into that slot
// module-wide. ok is false when the slot is unknown or any store was
// unresolvable — callers must then treat the call as dynamic.
func (g *CallGraph) Bindings(pkg *Package, callee ast.Expr) (fns []*types.Func, ok bool) {
	key, found := slotKey(pkg, callee)
	if !found {
		return nil, false
	}
	set := g.binds[key]
	if set == nil || set.tainted || len(set.funcs) == 0 {
		return nil, false
	}
	return set.funcs, true
}

// Reaching returns every function from which some function in targets
// is reachable over synchronous call edges (targets included). The
// result is memoized under key — analyzers compute their closure once
// per run and share it across per-package passes.
func (g *CallGraph) Reaching(key string, targets map[string]bool) map[string]bool {
	if got, ok := g.memo[key]; ok {
		return got
	}
	closed := closure(targets, g.callers)
	g.memo[key] = closed
	return closed
}

// ReachableFrom returns every function reachable from roots over
// synchronous call edges (roots included), memoized under key.
func (g *CallGraph) ReachableFrom(key string, roots map[string]bool) map[string]bool {
	if got, ok := g.memo[key]; ok {
		return got
	}
	closed := closure(roots, g.callees)
	g.memo[key] = closed
	return closed
}

func closure(seed map[string]bool, edges map[string]map[string]bool) map[string]bool {
	out := make(map[string]bool, len(seed))
	var stack []string
	for k := range seed {
		out[k] = true
		stack = append(stack, k)
	}
	for len(stack) > 0 {
		k := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for next := range edges[k] {
			if !out[next] {
				out[next] = true
				stack = append(stack, next)
			}
		}
	}
	return out
}
