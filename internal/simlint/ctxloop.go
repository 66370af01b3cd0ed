package simlint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// CtxLoop enforces the pulseStride cancellation contract on worker
// loops: in the scheduler packages, a potentially unbounded loop —
// `for { ... }` with no condition, or a range over a channel — must
// observe cancellation on every iteration, either by touching a
// context.Context value (ctx.Err(), ctx.Done(), or passing ctx into
// the unit of work) or through a select that can receive from a done
// channel. A worker loop that cannot observe cancellation strands the
// pool: RunUnits waits on its WaitGroup forever and SIGTERM-triggered
// checkpoint flushes never happen.
var CtxLoop = &Analyzer{
	Name:     "ctxloop",
	Doc:      "worker loops must check ctx.Err()/ctx.Done() (or a done channel) every iteration",
	Packages: WorkerLoopPackages,
	Run:      runCtxLoop,
}

func runCtxLoop(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ForStmt:
				if n.Init == nil && n.Cond == nil && n.Post == nil {
					checkWorkerLoop(pass, n, n.Body)
				}
			case *ast.RangeStmt:
				if t := pass.Info.TypeOf(n.X); t != nil {
					if _, ok := t.Underlying().(*types.Chan); ok {
						checkWorkerLoop(pass, n, n.Body)
					}
				}
			}
			return true
		})
	}
	return nil
}

// checkWorkerLoop reports the loop unless its body can observe
// cancellation.
func checkWorkerLoop(pass *Pass, loop ast.Node, body *ast.BlockStmt) {
	observes := false
	ast.Inspect(body, func(n ast.Node) bool {
		if observes {
			return false
		}
		switch n := n.(type) {
		case *ast.Ident:
			// Any touch of a context value counts: ctx.Err(), ctx.Done(),
			// or handing ctx to the unit of work (which then owns
			// cancellation).
			if obj := pass.Info.Uses[n]; obj != nil && isContextType(obj.Type()) {
				observes = true
			}
		case *ast.SelectStmt:
			// A select with a receive case is the done-channel variant of
			// the contract (e.g. serve's runner waiting on <-ctx.Done()
			// or <-s.wake).
			for _, clause := range n.Body.List {
				cc, ok := clause.(*ast.CommClause)
				if !ok || cc.Comm == nil {
					continue
				}
				if commIsReceive(cc.Comm) {
					observes = true
				}
			}
		}
		return !observes
	})
	if !observes {
		pass.Reportf(loop.Pos(), "worker loop never observes cancellation; check ctx.Err()/ctx.Done() (or select on a done channel) each iteration — the pulseStride contract")
	}
}

// commIsReceive reports whether a select comm clause receives.
func commIsReceive(stmt ast.Stmt) bool {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		u, ok := ast.Unparen(s.X).(*ast.UnaryExpr)
		return ok && u.Op == token.ARROW
	case *ast.AssignStmt:
		if len(s.Rhs) == 1 {
			u, ok := ast.Unparen(s.Rhs[0]).(*ast.UnaryExpr)
			return ok && u.Op == token.ARROW
		}
	}
	return false
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	if t == nil {
		return false
	}
	return t.String() == "context.Context"
}
