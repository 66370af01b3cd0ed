package simlint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// DeadCode reports every package-level function, method, type and var
// that no command, example, init function or nested module reaches. Code kept alive only by its own tests is dead: it passes
// its tests but nothing the repository ships ever runs it.
//
// The reference graph has one node per package-level declaration and
// an edge for every identifier the declaration uses (types.Info.Uses),
// call or value alike — so a function launched by `go`, stored in a
// registration map or passed as a callback counts, unlike in the call
// graph's synchronous edges. The roots are:
//
//   - `main` in every package main (cmd/* and examples/*);
//   - every `init` function and every package-level var initializer;
//   - every declaration carrying a //simlint:allow deadcode record, so
//     a kept test fake keeps what it calls;
//   - every name a nested module (perfbench) mentions, test files
//     included: `pkg.Name` through an import of a loaded package marks
//     that declaration, and any other `.Name` selector marks method
//     Name of every live type. This is syntactic and over-approximates,
//     so the benchmark's API is never reported.
//
// A method is also live when its receiver type is live and, with the
// rest of the type's method set, it implements an interface declared
// in any loaded or imported package (fmt.Stringer, error, sort.Interface,
// cache.Backside, ...): calls through the interface never name it.
// Consts are nodes but never reported: removing one from an iota group
// would renumber its neighbours.
var DeadCode = &Analyzer{
	Name:    "deadcode",
	Doc:     "every package-level declaration must be reachable from a command, example, init or nested-module root",
	Collect: collectDeadCode,
	Run:     runDeadCode,
}

// deadcodeDone is the fact key recording that the module-wide live set
// has been computed; no declaration key is empty.
const deadcodeDone = ""

func collectDeadCode(pass *Pass) error {
	if pass.Facts.Has(pass.Analyzer.Name, deadcodeDone) {
		return nil
	}
	live, err := liveDecls(pass.Analyzer.Name, pass.Graph.Packages())
	if err != nil {
		return err
	}
	for key := range live {
		pass.Facts.Set(pass.Analyzer.Name, key)
	}
	pass.Facts.Set(pass.Analyzer.Name, deadcodeDone)
	return nil
}

func runDeadCode(pass *Pass) error {
	eachDecl(pass.Package, func(id *ast.Ident, kind string, _ ast.Node) {
		if id.Name == "_" || kind == "const" || kind == "root" || pass.Facts.Has(pass.Analyzer.Name, declKey(pass.Info.Defs[id])) {
			return
		}
		pass.Reportf(id.Pos(), "%s %s is unreachable from any command, example, init or nested-module root; delete it", kind, id.Name)
	})
	return nil
}

// eachDecl calls visit for every named package-level declaration in
// pkg with its kind — "func", "method", "type", "var", "const", or
// "root" for init functions and a command's main — and the node whose
// uses it depends on.
func eachDecl(pkg *Package, visit func(id *ast.Ident, kind string, node ast.Node)) {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				kind := "func"
				switch {
				case decl.Recv != nil:
					kind = "method"
				case decl.Name.Name == "init", decl.Name.Name == "main" && pkg.Types.Name() == "main":
					kind = "root"
				}
				visit(decl.Name, kind, decl)
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						visit(spec.Name, "type", spec)
					case *ast.ValueSpec:
						for _, name := range spec.Names {
							visit(name, decl.Tok.String(), spec)
						}
					}
				}
			}
		}
	}
}

// declKey names a package-level object or method the same way in every
// package: export-data imports never share object pointers with the
// source-checked declaring package.
func declKey(obj types.Object) string {
	if fn, ok := obj.(*types.Func); ok {
		return FuncKey(fn)
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// liveDecls returns the keys of every declaration reachable from the
// roots over use edges and the interface rule. A declaration carrying
// an allow directive for analyzer is a root too, so what it uses is
// kept with it.
func liveDecls(analyzer string, pkgs []*Package) (map[string]bool, error) {
	edges := map[string]map[string]bool{}
	roots := map[string]bool{}
	methodsByName := map[string][][2]string{} // name -> {receiver type key, method key}
	for _, pkg := range pkgs {
		eachDecl(pkg, func(id *ast.Ident, kind string, node ast.Node) {
			key := declKey(pkg.Info.Defs[id])
			if kind == "root" || pkg.suppressed(analyzer, pkg.Fset.Position(id.Pos())) {
				roots[key] = true
			}
			if kind == "method" {
				fn := pkg.Info.Defs[id].(*types.Func)
				recv := types.Unalias(fn.Type().(*types.Signature).Recv().Type())
				if ptr, ok := recv.(*types.Pointer); ok {
					recv = ptr.Elem()
				}
				if named, ok := recv.(*types.Named); ok {
					methodsByName[id.Name] = append(methodsByName[id.Name], [2]string{declKey(named.Obj()), key})
				}
			}
			if kind == "var" {
				for _, v := range node.(*ast.ValueSpec).Values {
					usesIn(pkg, v, roots)
				}
			}
			set := edges[key]
			if set == nil {
				set = map[string]bool{}
				edges[key] = set
			}
			usesIn(pkg, node, set)
		})
	}

	qualified, selected, err := nestedModuleRefs(pkgs)
	if err != nil {
		return nil, err
	}
	for key := range qualified {
		roots[key] = true
	}
	for name := range selected {
		for _, m := range methodsByName[name] {
			edges[m[0]][m[1]] = true
		}
	}

	implemented := interfaceMethods(pkgs)
	live := map[string]bool{}
	var stack []string
	push := func(key string) {
		if !live[key] {
			live[key] = true
			stack = append(stack, key)
		}
	}
	for key := range roots {
		push(key)
	}
	for len(stack) > 0 {
		key := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for next := range edges[key] {
			push(next)
		}
		for _, m := range implemented[key] {
			push(m)
		}
	}
	return live, nil
}

// usesIn adds to set the key of every package-level object or method
// an identifier under node refers to.
func usesIn(pkg *Package, node ast.Node, set map[string]bool) {
	ast.Inspect(node, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pkg.Info.Uses[id]
		if obj == nil || obj.Pkg() == nil {
			return true
		}
		if fn, ok := obj.(*types.Func); ok {
			set[FuncKey(fn)] = true
		} else if obj.Parent() == obj.Pkg().Scope() {
			set[declKey(obj)] = true
		}
		return true
	})
}

// interfaceMethods maps each named type declared in the loaded
// packages to the keys of the methods through which it implements some
// interface: the universe error, the unnamed interfaces errors.Is,
// errors.As and errors.Unwrap assert, every named interface in a loaded
// or transitively imported package, and every interface literal the
// loaded code spells out. Interfaces are compared as method signature
// strings, which are identical whether a type came from source or from
// export data.
func interfaceMethods(pkgs []*Package) map[string][]string {
	ifaces := [][]string{{"Unwrap()(error,)"}, {"Unwrap()([]error,)"}, {"Is(error,)(bool,)"}, {"As(any,)(bool,)"}}
	addIface := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok || it.NumMethods() == 0 {
			return
		}
		sigs := make([]string, it.NumMethods())
		for i := range sigs {
			sigs[i] = methodSig(it.Method(i))
		}
		ifaces = append(ifaces, sigs)
	}
	addIface(errorInterface)
	seen := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, pkg := range pkgs {
		visit(pkg.Types)
		for _, tv := range pkg.Info.Types {
			if _, ok := tv.Type.(*types.Interface); ok {
				addIface(tv.Type)
			}
		}
	}

	out := map[string][]string{}
	for _, pkg := range pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			mset := types.NewMethodSet(types.NewPointer(tn.Type()))
			have := map[string]*types.Func{}
			for i := 0; i < mset.Len(); i++ {
				fn := mset.At(i).Obj().(*types.Func)
				have[methodSig(fn)] = fn
			}
		ifaceLoop:
			for _, sigs := range ifaces {
				for _, sig := range sigs {
					if have[sig] == nil {
						continue ifaceLoop
					}
				}
				for _, sig := range sigs {
					out[declKey(tn)] = append(out[declKey(tn)], FuncKey(have[sig]))
				}
			}
		}
	}
	return out
}

// methodSig spells a method's name and parameter and result types,
// leaving out parameter names, which an implementation may change.
func methodSig(fn *types.Func) string {
	sig := fn.Type().(*types.Signature)
	var b strings.Builder
	b.WriteString(fn.Name())
	for _, tuple := range []*types.Tuple{sig.Params(), sig.Results()} {
		b.WriteString("(")
		for i := 0; i < tuple.Len(); i++ {
			b.WriteString(types.TypeString(tuple.At(i).Type(), (*types.Package).Path))
			b.WriteString(",")
		}
		b.WriteString(")")
	}
	if sig.Variadic() {
		b.WriteString("...")
	}
	return b.String()
}

// nestedModuleRefs parses every Go file, tests included, of each
// module nested under the loaded packages' common directory and
// returns the declaration keys it names through imports of loaded
// packages (`pkg.Name`) and every other selector name (`x.Name`).
// Nested modules build against the loaded packages but are not part
// of them, so their uses would otherwise look dead.
func nestedModuleRefs(pkgs []*Package) (qualified, selected map[string]bool, err error) {
	qualified, selected = map[string]bool{}, map[string]bool{}
	loaded := map[string]*Package{}
	var root string
	for _, pkg := range pkgs {
		loaded[pkg.PkgPath] = pkg
		if len(pkg.Files) == 0 {
			continue
		}
		dir, aerr := filepath.Abs(filepath.Dir(pkg.Fset.Position(pkg.Files[0].Pos()).Filename))
		if aerr != nil {
			return nil, nil, aerr
		}
		if root == "" {
			root = dir
		}
		for !withinDir(dir, root) {
			root = filepath.Dir(root)
		}
	}
	if root == "" {
		return qualified, selected, nil
	}
	fset := token.NewFileSet()
	scanFile := func(path string) error {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		imports := map[string]string{} // local name -> loaded package path
		for _, spec := range f.Imports {
			path, _ := strconv.Unquote(spec.Path.Value)
			if pkg := loaded[path]; pkg != nil {
				name := pkg.Types.Name()
				if spec.Name != nil {
					name = spec.Name.Name
				}
				imports[name] = path
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && imports[x.Name] != "" {
					qualified[imports[x.Name]+"."+sel.Sel.Name] = true
				} else {
					selected[sel.Sel.Name] = true
				}
			}
			return true
		})
		return nil
	}
	// The go tool ignores testdata and dot or underscore directories.
	ignored := func(d fs.DirEntry) bool {
		name := d.Name()
		return name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")
	}
	scanModule := func(mod string) error {
		return filepath.WalkDir(mod, func(path string, d fs.DirEntry, werr error) error {
			switch {
			case werr != nil:
				return werr
			case d.IsDir() && path != mod && ignored(d):
				return filepath.SkipDir
			case !d.IsDir() && strings.HasSuffix(path, ".go"):
				return scanFile(path)
			}
			return nil
		})
	}
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, werr error) error {
		if werr != nil || path == root || !d.IsDir() {
			return werr
		}
		if ignored(d) {
			return filepath.SkipDir
		}
		if _, serr := os.Stat(filepath.Join(path, "go.mod")); serr != nil {
			return nil
		}
		if err := scanModule(path); err != nil {
			return err
		}
		return filepath.SkipDir
	})
	if err != nil {
		return nil, nil, fmt.Errorf("scanning nested modules: %w", err)
	}
	return qualified, selected, nil
}

func withinDir(path, dir string) bool {
	rel, err := filepath.Rel(dir, path)
	return err == nil && rel != ".." && !strings.HasPrefix(rel, ".."+string(filepath.Separator))
}
