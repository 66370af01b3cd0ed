// Package deadcode seeds reachability cases for the deadcode analyzer.
// Its roots are deadcodemain's main, this package's init, and the
// nested module under nested/.
package deadcode

import "fmt"

// OnlyFromTest is called only by a_test.go, which the analyzers never
// load: passing its own test does not make it live.
func OnlyFromTest() int { return 1 } // want `func OnlyFromTest is unreachable`

func onlyFromTestToo() string { return "t" } // want `func onlyFromTestToo is unreachable`

// deadType is never referenced, so neither are its methods.
type deadType struct{ n int } // want `type deadType is unreachable`

func (d deadType) value() int { return d.n } // want `method value is unreachable`

func (d *deadType) store(n int) { d.n = n } // want `method store is unreachable`

// deadCaller is dead, so what only it calls is dead too.
func deadCaller() int { return calledOnlyByDead() + calledOnlyByDeadToo() } // want `func deadCaller is unreachable`

func calledOnlyByDead() int { return 2 } // want `func calledOnlyByDead is unreachable`

func calledOnlyByDeadToo() int { return 3 } // want `func calledOnlyByDeadToo is unreachable`

var deadVar = 4 // want `var deadVar is unreachable`

// unusedConst is not reported: deleting a const from an iota group
// would renumber its neighbours.
const unusedConst = 5

// Spawned and InLiteral run only on goroutines that main starts; a use
// inside a go statement is still a use.
func Spawned() {}

func InLiteral() {}

// registry is filled by init, a root, so the registered functions are
// live although nothing calls them by name.
var registry = map[string]func() int{}

func init() {
	registry["a"] = registeredA
	registry["b"] = registeredB
}

func registeredA() int { return 1 }

func registeredB() int { return 2 }

// register runs only from a package-level var initializer, which is a
// root like init.
func register(name string, f func() int) bool {
	registry[name] = f
	return true
}

var _ = register("c", registeredC)

func registeredC() int { return 3 }

// Shape is a repo interface; main calls Area and Perimeter only
// through it.
type Shape interface {
	Area() int
	Perimeter() int
}

// Square implements Shape.
type Square struct{ Side int }

func (s Square) Area() int { return s.Side * s.Side }

func (s Square) Perimeter() int { return 4 * s.Side }

// NewShape returns a Square behind the interface.
func NewShape(side int) Shape { return Square{Side: side} }

// Color and Level are printed by main; fmt calls String through
// fmt.Stringer.
type Color int

func (c Color) String() string { return "red" }

// Level is a numbered severity.
type Level int

func (l Level) String() string { return fmt.Sprint("L", int(l)) }

// Benchmarked and Meter.Measure are mentioned only by the nested
// module's benchmark.
func Benchmarked() int { return 6 }

// Meter is measured by the nested module.
type Meter struct{}

func (Meter) Measure() int { return 7 }

// KeptOracle is used only by tests, and its allow record says which;
// what it calls is kept with it.
//
//simlint:allow deadcode oracle for TestOracle in a_test.go
func KeptOracle() int { return oracleHelper() }

func oracleHelper() int { return 8 }

func KeptFake() {} //simlint:allow deadcode fake for TestOracle in a_test.go
