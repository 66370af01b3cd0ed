// Package workload implements the six benchmark stand-ins for the
// paper's trace set (Table 1): ccom, grr, yacc, met, linpack and liver.
//
// The paper simulated real DEC programs on a MultiTitan simulator. We
// do not have those binaries or their inputs, so each workload here is
// a real algorithm of the same species, executed for real against a
// traced virtual memory (package memsim). What the cache experiments
// consume is only the memory reference stream, so the substitution
// preserves the behaviours the paper's evaluation depends on:
//
//   - linpack: unit-stride double-precision read-modify-write over an
//     80KB matrix (write-validate nearly useless).
//   - liver: Livermore loop kernels whose results are not re-read but
//     whose inputs are (write-around can win).
//   - ccom: multi-pass compiler that reads one structure and writes
//     another (write-validate wins big).
//   - yacc/grr/met: pointer/table/grid codes with strong write locality
//     (write-back caches remove most write traffic).
//
// Workloads are deterministic: the same name and scale always produce
// the identical trace.
package workload

import (
	"fmt"
	"sort"

	"cachewrite/internal/fanout"
	"cachewrite/internal/memsim"
	"cachewrite/internal/trace"
)

// Workload is a runnable benchmark stand-in.
type Workload interface {
	// Name is the paper's benchmark name ("linpack", "ccom", ...).
	Name() string
	// Description is a one-line summary of what the stand-in computes.
	Description() string
	// Run executes the workload against m. Scale multiplies the amount
	// of work (iterations, not data sizes); scale <= 0 is treated as 1.
	Run(m *memsim.Mem, scale int)
}

var registry = map[string]Workload{}

func register(w Workload) {
	if _, dup := registry[w.Name()]; dup {
		panic(fmt.Sprintf("workload: duplicate registration of %q", w.Name()))
	}
	registry[w.Name()] = w
}

// Names returns all registered workload names in sorted order.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// PaperOrder lists the six benchmarks in the order of the paper's
// Table 1.
func PaperOrder() []string {
	return []string{"ccom", "grr", "yacc", "met", "linpack", "liver"}
}

// Get returns the named workload.
func Get(name string) (Workload, error) {
	w, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("workload: unknown workload %q (have %v)", name, Names())
	}
	return w, nil
}

// Generate runs the named workload at the given scale and returns its
// trace.
func Generate(name string, scale int) (*trace.Trace, error) {
	w, err := Get(name)
	if err != nil {
		return nil, err
	}
	m := memsim.New(name)
	w.Run(m, scale)
	if err := m.Err(); err != nil {
		return m.Trace(), fmt.Errorf("workload %q: %w", name, err)
	}
	return m.Trace(), nil
}

// GenerateAll produces traces for the six paper benchmarks in paper
// order, generating them in parallel. On failure it returns the error
// of the first failing benchmark in paper order.
func GenerateAll(scale int) ([]*trace.Trace, error) {
	names := PaperOrder()
	return fanout.Run(len(names), func(i int) (*trace.Trace, error) { return Generate(names[i], scale) })
}

// rng is a deterministic xorshift64* generator. We use our own instead
// of math/rand so traces are reproducible byte-for-byte regardless of
// Go version or seeding behaviour.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &rng{s: seed}
}

func (r *rng) next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545f4914f6cdd1d
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int {
	if n <= 0 {
		panic("workload: intn with non-positive n")
	}
	return int(r.next() % uint64(n))
}

// f64 returns a value in [0, 1).
func (r *rng) f64() float64 {
	return float64(r.next()>>11) / float64(1<<53)
}

func clampScale(scale int) int {
	if scale <= 0 {
		return 1
	}
	return scale
}
