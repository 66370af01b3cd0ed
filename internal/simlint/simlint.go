// Package simlint is a custom static-analysis suite that enforces the
// simulator's engine invariants at compile time: panic-free engine
// packages, a zero-allocation access hot path, errors.Is-only sentinel
// comparisons, deterministic result emission, cancellable worker loops,
// and no declaration that nothing the repository ships reaches.
// cmd/simlint runs every analyzer over the module as part of
// `make check`; docs/simlint.md describes each rule and its escape
// hatches.
//
// The framework mirrors golang.org/x/tools/go/analysis in miniature,
// but is built only on the standard library so the repository carries
// no external dependencies: packages are enumerated with
// `go list -export -deps -json` and dependency types are decoded from
// the build cache's compiled export data.
package simlint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Directive comments:
//
//	//simlint:allow <analyzer> [reason]
//	//simlint:allow
//
// placed on the flagged line or the line directly above it suppress
// that analyzer's diagnostics (the bare form suppresses every
// analyzer). A reason is strongly encouraged.
//
//	//simlint:hotpath
//
// in a function's doc comment marks it (and, transitively, everything
// it statically calls) as part of the zero-allocation hot path checked
// by the hotpath analyzer.
const (
	directivePrefix = "simlint:"
	allowDirective  = "allow"
	// HotpathDirective is the doc-comment directive that puts a
	// function under the hotpath analyzer's contract.
	HotpathDirective = "hotpath"
)

// Diagnostic is one analyzer finding.
type Diagnostic struct {
	// Pos locates the start of the finding.
	Pos token.Position
	// End locates the end of the flagged expression (same file as Pos).
	// For point diagnostics End equals Pos; editors and the SARIF
	// output use the pair to underline the full expression rather than
	// a single column.
	End token.Position
	// Analyzer names the reporting analyzer.
	Analyzer string
	// Message describes the violation and how to resolve it.
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Package is one loaded, type-checked package.
type Package struct {
	// PkgPath is the package's import path.
	PkgPath string
	// Fset positions every file.
	Fset *token.FileSet
	// Files are the parsed non-test source files.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info holds the type-checker's expression/object maps.
	Info *types.Info

	// allow maps filename → line → analyzer names suppressed there
	// ("" suppresses all).
	allow map[string]map[int][]string
}

// scanDirectives indexes every //simlint:allow comment by file and
// line.
func (p *Package) scanDirectives() {
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := directiveText(c.Text)
				if !ok {
					continue
				}
				fields := strings.Fields(rest)
				if len(fields) == 0 || fields[0] != allowDirective {
					continue
				}
				name := "" // bare allow: every analyzer
				if len(fields) > 1 {
					name = fields[1]
				}
				pos := p.Fset.Position(c.Pos())
				byLine := p.allow[pos.Filename]
				if byLine == nil {
					byLine = map[int][]string{}
					p.allow[pos.Filename] = byLine
				}
				byLine[pos.Line] = append(byLine[pos.Line], name)
			}
		}
	}
}

// directiveText returns the text after "//simlint:" when the comment
// is a simlint directive.
func directiveText(comment string) (string, bool) {
	if !strings.HasPrefix(comment, "//") {
		return "", false
	}
	rest := strings.TrimPrefix(comment, "//")
	if !strings.HasPrefix(rest, directivePrefix) {
		return "", false
	}
	return strings.TrimPrefix(rest, directivePrefix), true
}

// suppressed reports whether analyzer diagnostics at pos are covered
// by an allow directive on the same line or the line above.
func (p *Package) suppressed(analyzer string, pos token.Position) bool {
	byLine := p.allow[pos.Filename]
	if byLine == nil {
		return false
	}
	for _, line := range [2]int{pos.Line, pos.Line - 1} {
		for _, name := range byLine[line] {
			if name == "" || name == analyzer {
				return true
			}
		}
	}
	return false
}

// HasFuncDirective reports whether the function declaration's doc
// comment carries the given simlint directive (e.g. "hotpath").
func HasFuncDirective(fn *ast.FuncDecl, directive string) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		rest, ok := directiveText(c.Text)
		if !ok {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) > 0 && fields[0] == directive {
			return true
		}
	}
	return false
}

// Facts is the cross-package blackboard written during the collect
// phase and read during the run phase (the miniature counterpart of
// go/analysis facts). Keys are namespaced per analyzer.
type Facts struct {
	m map[string]map[string]bool
}

// NewFacts returns an empty fact store.
func NewFacts() *Facts { return &Facts{m: map[string]map[string]bool{}} }

// Set records fact key for analyzer.
func (f *Facts) Set(analyzer, key string) {
	set := f.m[analyzer]
	if set == nil {
		set = map[string]bool{}
		f.m[analyzer] = set
	}
	set[key] = true
}

// Has reports whether fact key was recorded for analyzer.
func (f *Facts) Has(analyzer, key string) bool { return f.m[analyzer][key] }

// Pass carries one analyzer's view of one package.
type Pass struct {
	*Package
	// Analyzer is the running analyzer.
	Analyzer *Analyzer
	// Facts is shared by every pass of the run.
	Facts *Facts
	// Graph is the module-wide call-graph fact layer, built once over
	// every loaded package before any collect or run phase.
	Graph *CallGraph

	diags *[]Diagnostic
}

// Reportf records a point diagnostic at pos unless an allow directive
// suppresses it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(pos, pos, format, args...)
}

// ReportRangef records a diagnostic spanning node's full extent, so
// editors and SARIF underline the whole flagged expression.
func (p *Pass) ReportRangef(node ast.Node, format string, args ...any) {
	p.report(node.Pos(), node.End(), format, args...)
}

func (p *Pass) report(pos, end token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.suppressed(p.Analyzer.Name, position) {
		return
	}
	endPosition := position
	if end.IsValid() && end != pos {
		endPosition = p.Fset.Position(end)
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      position,
		End:      endPosition,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzer is one named invariant check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and allow
	// directives.
	Name string
	// Doc is a one-paragraph description.
	Doc string
	// Packages restricts the run phase to these module-relative
	// package paths (e.g. "internal/cache"); nil means every package.
	// The collect phase always sees every package.
	Packages []string
	// Collect, when non-nil, runs over every loaded package before
	// any Run, recording cross-package facts.
	Collect func(*Pass) error
	// Run reports diagnostics for one package.
	Run func(*Pass) error
}

// AppliesTo reports whether the analyzer's run phase covers the
// package, given the module path ("" matches by suffix only, for
// harness-loaded packages).
func (a *Analyzer) AppliesTo(modulePath, pkgPath string) bool {
	if len(a.Packages) == 0 {
		return true
	}
	for _, p := range a.Packages {
		if modulePath != "" && pkgPath == modulePath+"/"+p {
			return true
		}
		if modulePath == "" && (pkgPath == p || strings.HasSuffix(pkgPath, "/"+p)) {
			return true
		}
	}
	return false
}

// RunAnalyzers executes the analyzers over the module in two phases —
// collect (facts, every package) then run (scoped) — and returns the
// surviving diagnostics sorted by position.
func RunAnalyzers(mod *Module, analyzers []*Analyzer) ([]Diagnostic, error) {
	return runAnalyzers(mod.Path, mod.Packages, analyzers, true)
}

func runAnalyzers(modulePath string, pkgs []*Package, analyzers []*Analyzer, scoped bool) ([]Diagnostic, error) {
	var diags []Diagnostic
	facts := NewFacts()
	graph := BuildCallGraph(pkgs)
	for _, a := range analyzers {
		if a.Collect == nil {
			continue
		}
		for _, pkg := range pkgs {
			pass := &Pass{Package: pkg, Analyzer: a, Facts: facts, Graph: graph, diags: &diags}
			if err := a.Collect(pass); err != nil {
				return nil, fmt.Errorf("simlint: %s: collect %s: %w", a.Name, pkg.PkgPath, err)
			}
		}
	}
	for _, a := range analyzers {
		for _, pkg := range pkgs {
			if scoped && !a.AppliesTo(modulePath, pkg.PkgPath) {
				continue
			}
			pass := &Pass{Package: pkg, Analyzer: a, Facts: facts, Graph: graph, diags: &diags}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("simlint: %s: %s: %w", a.Name, pkg.PkgPath, err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

// errorInterface is the universe error interface, for Implements
// checks.
var errorInterface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// implementsError reports whether t satisfies the error interface.
func implementsError(t types.Type) bool {
	if t == nil {
		return false
	}
	return types.Implements(t, errorInterface)
}

// usedFunc resolves a call's callee to the *types.Func it statically
// invokes, or nil for builtins, conversions, and indirect calls
// through function values.
func usedFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	case *ast.IndexExpr:
		return usedFuncIdent(info, fun.X)
	case *ast.IndexListExpr:
		return usedFuncIdent(info, fun.X)
	}
	return nil
}

func usedFuncIdent(info *types.Info, x ast.Expr) *types.Func {
	switch x := ast.Unparen(x).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[x].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[x.Sel].(*types.Func)
		return fn
	}
	return nil
}

// calleePath returns the defining package path of fn ("" for
// universe-scope objects).
func calleePath(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path()
}

// isPkgFunc reports whether the call statically invokes
// pkgPath.name (a package-level function, not a method).
func isPkgFunc(info *types.Info, call *ast.CallExpr, pkgPath, name string) bool {
	fn := usedFunc(info, call)
	if fn == nil || fn.Name() != name || calleePath(fn) != pkgPath {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}
