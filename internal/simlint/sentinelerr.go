package simlint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// SentinelErr enforces the engine's error-matching contract,
// module-wide: sentinel errors (package-level `var ErrFoo = ...`
// values, plus io.EOF, context.Canceled and context.DeadlineExceeded)
// must be matched with errors.Is, never ==/!= or a switch case, and an
// error formatted into another error must be wrapped with %w so the
// sentinel stays reachable through the chain. The engine wraps every
// sentinel (`fmt.Errorf("%w: access at 0x%x size %d", ErrPageCross, addr, size)`), so
// a == comparison is not merely style — it is wrong today.
var SentinelErr = &Analyzer{
	Name: "sentinelerr",
	Doc:  "sentinel errors must be compared with errors.Is and wrapped with %w",
	Run:  runSentinelErr,
}

// extraSentinels are well-known stdlib sentinels whose names do not
// start with Err.
var extraSentinels = map[string]bool{
	"io.EOF":                   true,
	"context.Canceled":         true,
	"context.DeadlineExceeded": true,
}

// sentinelVar resolves expr to a package-level error variable that
// looks like a sentinel (Err* naming convention or a known stdlib
// sentinel), returning nil otherwise.
func sentinelVar(info *types.Info, expr ast.Expr) *types.Var {
	var obj types.Object
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		obj = info.Uses[e]
	case *ast.SelectorExpr:
		obj = info.Uses[e.Sel]
	default:
		return nil
	}
	v, ok := obj.(*types.Var)
	if !ok || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
		return nil
	}
	if !implementsError(v.Type()) {
		return nil
	}
	if strings.HasPrefix(v.Name(), "Err") || strings.HasPrefix(v.Name(), "err") {
		return v
	}
	if extraSentinels[v.Pkg().Name()+"."+v.Name()] {
		return v
	}
	return nil
}

// isErrorExpr reports whether expr has an error-implementing type and
// is not the nil literal.
func isErrorExpr(info *types.Info, expr ast.Expr) bool {
	tv, ok := info.Types[expr]
	if !ok || tv.IsNil() {
		return false
	}
	return implementsError(tv.Type)
}

func runSentinelErr(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				if n.Op != token.EQL && n.Op != token.NEQ {
					return true
				}
				for _, pair := range [2][2]ast.Expr{{n.X, n.Y}, {n.Y, n.X}} {
					if s := sentinelVar(pass.Info, pair[0]); s != nil && isErrorExpr(pass.Info, pair[1]) {
						pass.Reportf(n.Pos(), "sentinel %s compared with %s; the engine wraps its sentinels, so use errors.Is", s.Name(), n.Op)
						break
					}
				}

			case *ast.SwitchStmt:
				if n.Tag == nil || !isErrorExpr(pass.Info, n.Tag) {
					return true
				}
				for _, stmt := range n.Body.List {
					cc, ok := stmt.(*ast.CaseClause)
					if !ok {
						continue
					}
					for _, e := range cc.List {
						if s := sentinelVar(pass.Info, e); s != nil {
							pass.Reportf(e.Pos(), "sentinel %s matched in a switch case (== semantics); use errors.Is", s.Name())
						}
					}
				}

			case *ast.CallExpr:
				checkErrorfWrap(pass, n)
			}
			return true
		})
	}
	return nil
}

// checkErrorfWrap flags fmt.Errorf calls that format an error value
// with a verb other than %w, which hides it from errors.Is/As.
func checkErrorfWrap(pass *Pass, call *ast.CallExpr) {
	if !isPkgFunc(pass.Info, call, "fmt", "Errorf") || len(call.Args) < 2 {
		return
	}
	lit, ok := ast.Unparen(call.Args[0]).(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return
	}
	format, err := strconv.Unquote(lit.Value)
	if err != nil {
		return
	}
	if strings.Contains(format, "%[") {
		return // explicit argument indexes: too clever to map reliably
	}
	verbs := formatVerbs(format)
	args := call.Args[1:]
	for i, verb := range verbs {
		if i >= len(args) {
			break
		}
		if verb != 'w' && isErrorExpr(pass.Info, args[i]) {
			pass.Reportf(args[i].Pos(), "error formatted with %%%c loses the chain for errors.Is; wrap it with %%w", verb)
		}
	}
}

// formatVerbs returns the verb letter for each argument a fmt format
// string consumes, in order ('*' width/precision arguments are
// reported as '*').
func formatVerbs(format string) []rune {
	var verbs []rune
	for i := 0; i < len(format); i++ {
		if format[i] != '%' {
			continue
		}
		i++
	verb:
		for ; i < len(format); i++ {
			switch c := format[i]; {
			case c == '%':
				break verb // literal %%
			case c == '*':
				verbs = append(verbs, '*') // dynamic width/precision eats an arg
			case strings.ContainsRune("+-# 0.", rune(c)) || (c >= '0' && c <= '9'):
				// flags, width, precision digits
			default:
				verbs = append(verbs, rune(c))
				break verb
			}
		}
	}
	return verbs
}
