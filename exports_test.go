package vadalink_test

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// exportAllowlist names the exported funcs and methods under internal/ that
// no non-test file calls but that stay on purpose, keyed as
// "package.Func" or "package.Type.Method", each with its reason.
var exportAllowlist = map[string]string{
	// Shipped paper programs and their oracles.
	"vadalog.RunGeneric":                    "executes the shipped GenericAugmentProgram (Algorithm 3), kept for a cross-check against core.Augment",
	"vadalog.Reasoner.AccumulatedOwnership": "oracle the golden and close-link cross-check tests read",
	// Seams tests use to reach failure paths.
	"faultinject.Set":    "the seam tests inject faults through",
	"faultinject.SetErr": "the seam tests inject faults through",
	"faultinject.Reset":  "the seam tests inject faults through",
	"faultinject.Clear":  "the seam tests inject faults through",
	// Ablations and differential legs (DESIGN.md §4).
	"datalog.WithNaive":   "naive-evaluation ablation and differential leg",
	"datalog.WithNoIndex": "scan-only ablation and differential leg",
	// Test helpers that live in non-test files so other packages' tests share them.
	"graphgen.RandomCommit":        "test helper shared across packages",
	"pg.Builder.PersonWith":        "builds the root scenario tests' graphs",
	"pg.Graph.MustAddEdgeWeighted": "test helper shared across packages",
	"pg.Graph.RemoveNode":          "the named node removal persistence tests write WAL and snapshot streams with",
	"pg.Graph.Validate":            "facade API (vadalink.Graph) and the Definition 2.2 oracle tests hold the mutator to",
	"vadalog.CloseLinkProgramT":    "builds the close-link program at a test's threshold",
	"vadalog.MaintenanceProgram":   "the scoped program's text, which the shared-plan and ivm round-count tests chase",
	"experiments.ReembedRecall":    "Figure 4(e) harness the root ablation benchmark runs",
	// Methods reached only through an interface the errors package declares
	// inside a function body, where no package scope shows it.
	"datalog.BudgetExceededError.Unwrap": "errors.Is/As reach it through the Unwrap interface",
	"whatif.OpError.Unwrap":              "errors.Is/As reach it through the Unwrap interface",
}

// TestEveryExportHasACaller fails on an exported func or method under
// internal/ that no non-test file of the module (bench/ included) uses,
// unless exportAllowlist names it. The module is type-checked, so a use is
// an identifier or selector that resolves to that very func or method (a
// func calling itself does not count), never just a name it shares. A
// method also counts as used when its receiver type implements an interface
// that declares it — sort.Interface, error, an interface of the module —
// since calls through the interface select the interface's method, not the
// concrete one. An allowlist entry that no longer names an uncalled export
// fails too, which keeps the list honest.
func TestEveryExportHasACaller(t *testing.T) {
	pkgs, fset := typeChecked(t)
	used := map[*types.Func]bool{}
	var ifaces []*types.Interface
	for _, p := range pkgs {
		for _, f := range p.files {
			for _, d := range f.Decls {
				var self types.Object
				if fn, ok := d.(*ast.FuncDecl); ok {
					self = p.info.Defs[fn.Name]
				}
				ast.Inspect(d, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if fn, ok := p.info.Uses[id].(*types.Func); ok && fn != self {
							used[fn.Origin()] = true
						}
					}
					return true
				})
			}
		}
		for _, tv := range p.info.Types {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				ifaces = append(ifaces, it)
			}
		}
	}
	ifaces = append(ifaces, namedInterfaces(pkgs)...)

	uncalled := map[string]token.Position{}
	for _, p := range pkgs {
		if !strings.HasPrefix(p.dir, "internal/") {
			continue
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok || !fn.Name.IsExported() {
					continue
				}
				obj := p.info.Defs[fn.Name].(*types.Func)
				if used[obj] || implementsInterface(obj, ifaces) {
					continue
				}
				key := p.pkg.Name() + "." + obj.Name()
				if recv := obj.Type().(*types.Signature).Recv(); recv != nil {
					key = p.pkg.Name() + "." + receiverNamed(recv.Type()).Obj().Name() + "." + obj.Name()
				}
				uncalled[key] = fset.Position(fn.Pos())
			}
		}
	}
	var fails []string
	for key, pos := range uncalled {
		if _, ok := exportAllowlist[key]; !ok {
			fails = append(fails, pos.String()+": "+key+" has no caller outside tests; delete it or allowlist it with a reason")
		}
	}
	for key := range exportAllowlist {
		if _, ok := uncalled[key]; !ok {
			fails = append(fails, "exportAllowlist entry "+key+" names no uncalled export; remove the entry")
		}
	}
	sort.Strings(fails)
	for _, f := range fails {
		t.Error(f)
	}
}

// implementsInterface reports whether fn is a method whose receiver type, as
// a value or a pointer, implements one of ifaces that declares a method of
// fn's name.
func implementsInterface(fn *types.Func, ifaces []*types.Interface) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	named := receiverNamed(recv.Type())
	if named.TypeParams().Len() > 0 {
		return false
	}
	for _, it := range ifaces {
		if !it.IsMethodSet() {
			continue
		}
		if obj, _, _ := types.LookupFieldOrMethod(it, false, fn.Pkg(), fn.Name()); obj == nil {
			continue
		}
		if types.Implements(named, it) || types.Implements(types.NewPointer(named), it) {
			return true
		}
	}
	return false
}

// receiverNamed is the named type of a method receiver: T or *T.
func receiverNamed(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named)
}

// namedInterfaces returns the non-generic named interfaces with methods
// declared at package level in pkgs and every package they import, plus
// error.
func namedInterfaces(pkgs []*modulePackage) []*types.Interface {
	out := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || named.TypeParams().Len() > 0 {
				continue
			}
			if it, ok := named.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				out = append(out, it)
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, p := range pkgs {
		walk(p.pkg)
	}
	return out
}

// modulePackage is one type-checked package of the module: its
// slash-separated directory, its non-test files and their type information.
type modulePackage struct {
	dir   string
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

// moduleImporter type-checks the module's packages from source on demand,
// bench/ as vadalink/bench, and imports the standard library from source.
type moduleImporter struct {
	fset  *token.FileSet
	std   types.Importer
	pkgs  map[string]*modulePackage
	order []*modulePackage
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if path != "vadalink" && !strings.HasPrefix(path, "vadalink/") {
		return m.std.Import(path)
	}
	if p, ok := m.pkgs[path]; ok {
		if p.pkg == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return p.pkg, nil
	}
	dir := "."
	if path != "vadalink" {
		dir = strings.TrimPrefix(path, "vadalink/")
	}
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	p := &modulePackage{dir: dir, info: &types.Info{
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}}
	m.pkgs[path] = p
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(m.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	conf := types.Config{Importer: m}
	if p.pkg, err = conf.Check(path, m.fset, p.files, p.info); err != nil {
		return nil, err
	}
	m.order = append(m.order, p)
	return p.pkg, nil
}

// typeCheckModule type-checks every directory of the module holding non-test
// Go files, bench/ included.
func typeCheckModule(fset *token.FileSet) ([]*modulePackage, error) {
	m := &moduleImporter{fset: fset, std: importer.ForCompiler(fset, "source", nil), pkgs: map[string]*modulePackage{}}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
			return filepath.SkipDir
		}
		importPath := "vadalink"
		if path != "." {
			importPath += "/" + filepath.ToSlash(path)
		}
		if _, err := m.Import(importPath); err != nil {
			var noGo *build.NoGoError
			if errors.As(err, &noGo) {
				return nil
			}
			return err
		}
		return nil
	})
	return m.order, err
}

// moduleFset positions the files of the type-checked module.
var moduleFset = token.NewFileSet()

// checkedModule type-checks the module (typeCheckModule) once per test
// binary. The guards share the result and only read it.
var checkedModule = sync.OnceValues(func() ([]*modulePackage, error) { return typeCheckModule(moduleFset) })

// typeChecked returns the module's type-checked packages and their file set,
// failing t when the module does not type-check.
func typeChecked(t *testing.T) ([]*modulePackage, *token.FileSet) {
	t.Helper()
	pkgs, err := checkedModule()
	if err != nil {
		t.Fatal(err)
	}
	return pkgs, moduleFset
}

// TestOraclesStayOutOfProduction fails when a non-test package outside
// bench/ imports internal/control or internal/closelink. Production reads
// control and Φ from the served programs (DESIGN.md §5); those two packages
// are the reference solvers that tests and the benchmark check it against.
func TestOraclesStayOutOfProduction(t *testing.T) {
	pkgs, _ := typeChecked(t)
	oracles := map[string]bool{"vadalink/internal/control": true, "vadalink/internal/closelink": true}
	checked := 0
	for _, p := range pkgs {
		if p.dir == "bench" || strings.HasPrefix(p.dir, "bench/") {
			continue
		}
		checked++
		for _, imp := range p.pkg.Imports() {
			if oracles[imp.Path()] {
				t.Errorf("%s imports %s; read control and Φ from the served programs instead", p.pkg.Path(), imp.Path())
			}
		}
	}
	if checked == 0 {
		t.Fatal("no non-test packages outside bench/ type-checked")
	}
}

// TestOneAggregateStep fails when a non-test file outside bench/ and
// internal/datalog refers to datalog.WithMinAggDelta. Every chase runs at the
// engine's default step, datalog.DefaultMinAggDelta (DESIGN.md §5): a path
// that sets its own would read a second Φ for the same pair.
func TestOneAggregateStep(t *testing.T) {
	pkgs, fset := typeChecked(t)
	var setter types.Object
	for _, p := range pkgs {
		if p.dir == "internal/datalog" {
			setter = p.pkg.Scope().Lookup("WithMinAggDelta")
		}
	}
	if setter == nil {
		t.Fatal("datalog.WithMinAggDelta not found: the guard checks nothing")
	}
	for _, p := range pkgs {
		if p.dir == "internal/datalog" || p.dir == "bench" || strings.HasPrefix(p.dir, "bench/") {
			continue
		}
		for id, obj := range p.info.Uses {
			if obj == setter {
				t.Errorf("%s sets the aggregate step; chase at the engine's default", fset.Position(id.Pos()))
			}
		}
	}
}

// programLoaderAllowlist names the functions outside the program table that
// may build an engine from program text, keyed as "package.Func", each with
// its reason.
var programLoaderAllowlist = map[string]string{
	"vadalink.ParseRules": "the facade's custom-program API: a library caller parses its own rules",
	"vadalink.NewEngine":  "the facade's custom-program API: a library caller loads and runs its own engine",
}

// TestOneProgramTable fails when a non-test file outside internal/vadalog,
// internal/datalog, internal/relstore and bench/ parses or compiles program
// text (datalog.Parse, MustParse, Compile, CompileGoal, NewGoalEngine,
// MagicRewrite), builds an engine (datalog.NewEngine, or NewEngine on a
// *datalog.Compiled or *datalog.CompiledGoal) or loads a graph into one
// (relstore.Load, LoadScope), unless programLoaderAllowlist names the
// function it does so in. Every chase starts from a vadalog.Program, whose
// builders own the ordering rules of a load (DESIGN.md §7.7). An allowlist
// entry that allows nothing fails too.
func TestOneProgramTable(t *testing.T) {
	pkgs, fset := typeChecked(t)
	loaders := map[types.Object]string{}
	for _, p := range pkgs {
		var names []string
		switch p.dir {
		case "internal/datalog":
			names = []string{"Parse", "MustParse", "Compile", "CompileGoal", "NewGoalEngine", "MagicRewrite", "NewEngine"}
			for _, typ := range []string{"Compiled", "CompiledGoal"} {
				named := p.pkg.Scope().Lookup(typ).Type().(*types.Named)
				for i := range named.NumMethods() {
					if m := named.Method(i); m.Name() == "NewEngine" {
						loaders[m] = "datalog." + typ + ".NewEngine"
					}
				}
			}
		case "internal/relstore":
			names = []string{"Load", "LoadScope"}
		}
		for _, name := range names {
			if obj := p.pkg.Scope().Lookup(name); obj != nil {
				loaders[obj] = p.pkg.Name() + "." + name
			}
		}
	}
	if len(loaders) != 11 {
		t.Fatalf("found %d of the 11 program loaders: the guard checks less than it says", len(loaders))
	}
	allowed := map[string]bool{}
	for _, p := range pkgs {
		switch {
		case p.dir == "internal/vadalog", p.dir == "internal/datalog", p.dir == "internal/relstore",
			p.dir == "bench", strings.HasPrefix(p.dir, "bench/"):
			continue
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				key := ""
				if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil {
					key = p.pkg.Name() + "." + fn.Name.Name
				}
				ast.Inspect(d, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					loader, ok := loaders[p.info.Uses[id]]
					switch {
					case !ok:
					case programLoaderAllowlist[key] != "":
						allowed[key] = true
					default:
						t.Errorf("%s: calls %s; start the chase from a vadalog.Program", fset.Position(id.Pos()), loader)
					}
					return true
				})
			}
		}
	}
	for key := range programLoaderAllowlist {
		if !allowed[key] {
			t.Errorf("programLoaderAllowlist entry %s calls no program loader; remove the entry", key)
		}
	}
}

// TestDatalogImportsNoSync fails when a non-test file of internal/datalog
// imports sync or sync/atomic. An Engine belongs to one goroutine and a
// Compiled program is immutable (DESIGN.md §7.7), so the package needs no
// lock; the memos of compiled shipped programs live in the packages that
// ship them.
func TestDatalogImportsNoSync(t *testing.T) {
	files, err := filepath.Glob("internal/datalog/*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	checked := 0
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		checked++
		for _, imp := range f.Imports {
			if p := strings.Trim(imp.Path.Value, `"`); p == "sync" || p == "sync/atomic" {
				t.Errorf("%s imports %s; internal/datalog takes no locks", fset.Position(imp.Pos()), p)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no non-test files under internal/datalog")
	}
}

// TestNoGobImports fails when a non-test file of the module, bench/
// included, imports encoding/gob. Graph state has one codec, persist's
// record codec: a snapshot is the compacted log that rebuilds the graph
// (DESIGN.md §9.1), and a second encoder would bring back a second way to
// write and load it.
func TestNoGobImports(t *testing.T) {
	fset := token.NewFileSet()
	checked := 0
	err := parseModule(fset, func(path string, f *ast.File) {
		checked++
		for _, imp := range f.Imports {
			if strings.Trim(imp.Path.Value, `"`) == "encoding/gob" {
				t.Errorf("%s imports encoding/gob; graph state is written through internal/persist's record codec", fset.Position(imp.Pos()))
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if checked == 0 {
		t.Fatal("no non-test files parsed")
	}
}

// parseModule parses every non-test .go file of the module, bench/ included,
// and hands each to fn with its slash-separated path.
func parseModule(fset *token.FileSet, fn func(path string, f *ast.File)) error {
	return filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		fn(filepath.ToSlash(path), f)
		return nil
	})
}

// TestElementsAreImmutable fails on a write to the Props of a pg.Node or
// pg.Edge in a non-test file of the module, bench/ included: an assignment
// to the field or to one of its keys, taking its address, or a delete,
// clear, maps.Copy or maps.DeleteFunc on it. It fails too when pg.Record,
// the type of Props, could be written in place: when it holds anything but
// strings and numbers (a pointer, slice, map, channel, function or
// interface), through which a method could change a record after it is
// built. Clones, store versions and overlays share elements (DESIGN.md
// §11.1), so a write through one would change every graph that holds the
// element; a change builds a new element instead, as
// pg.Graph.SetEdgeWeight does.
func TestElementsAreImmutable(t *testing.T) {
	pkgs, fset := typeChecked(t)
	records := 0
	for _, p := range pkgs {
		if p.pkg.Path() != "vadalink/internal/pg" {
			continue
		}
		for _, elem := range []string{"Node", "Edge"} {
			st := p.pkg.Scope().Lookup(elem).Type().Underlying().(*types.Struct)
			for i := range st.NumFields() {
				if f := st.Field(i); f.Name() == "Props" {
					records++
					if err := valueOnly(f.Type()); err != nil {
						t.Errorf("pg.%s.Props is %s, which %v; a record must hold only strings and numbers", elem, f.Type(), err)
					}
				}
			}
		}
	}
	if records != 2 {
		t.Fatalf("found %d Props fields on pg.Node and pg.Edge, want 2", records)
	}
	seen := 0
	for _, p := range pkgs {
		// isProps reports whether x is the Props field of a pg.Node or
		// pg.Edge, or a key of it.
		isProps := func(x ast.Expr) bool {
			x = ast.Unparen(x)
			if ix, ok := x.(*ast.IndexExpr); ok {
				x = ast.Unparen(ix.X)
			}
			sel, ok := x.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Props" {
				return false
			}
			typ := p.info.TypeOf(sel.X)
			if ptr, ok := typ.(*types.Pointer); ok {
				typ = ptr.Elem()
			}
			named, ok := typ.(*types.Named)
			if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "vadalink/internal/pg" {
				return false
			}
			return named.Obj().Name() == "Node" || named.Obj().Name() == "Edge"
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				var written []ast.Expr
				switch s := n.(type) {
				case *ast.SelectorExpr:
					if isProps(s) {
						seen++
					}
				case *ast.AssignStmt:
					written = s.Lhs
				case *ast.IncDecStmt:
					written = []ast.Expr{s.X}
				case *ast.UnaryExpr:
					if s.Op == token.AND {
						written = []ast.Expr{s.X}
					}
				case *ast.CallExpr:
					if len(s.Args) > 0 && writesFirstArg(p.info, s.Fun) {
						written = s.Args[:1]
					}
				}
				for _, x := range written {
					if isProps(x) {
						t.Errorf("%s: writes the Props of a pg element, which clones and versions share; build a new element instead",
							fset.Position(x.Pos()))
					}
				}
				return true
			})
		}
	}
	if seen == 0 {
		t.Fatal("no Props field of a pg element found in the module")
	}
}

// valueOnly reports why a value of type t could be written through, or nil
// when t holds only strings, numbers and bools, directly or in structs and
// arrays.
func valueOnly(t types.Type) error {
	switch u := t.Underlying().(type) {
	case *types.Basic:
		if u.Kind() == types.UnsafePointer {
			return fmt.Errorf("holds an unsafe.Pointer")
		}
		return nil
	case *types.Struct:
		for i := range u.NumFields() {
			if err := valueOnly(u.Field(i).Type()); err != nil {
				return fmt.Errorf("field %s %w", u.Field(i).Name(), err)
			}
		}
		return nil
	case *types.Array:
		return valueOnly(u.Elem())
	}
	return fmt.Errorf("holds a %s", t.Underlying())
}

// writesFirstArg reports whether fun is a builtin or standard-library map
// function that writes the map passed as its first argument.
func writesFirstArg(info *types.Info, fun ast.Expr) bool {
	var id *ast.Ident
	switch f := ast.Unparen(fun).(type) {
	case *ast.Ident:
		id = f
	case *ast.SelectorExpr:
		id = f.Sel
	default:
		return false
	}
	switch obj := info.Uses[id].(type) {
	case *types.Builtin:
		return obj.Name() == "delete" || obj.Name() == "clear"
	case *types.Func:
		return obj.Pkg() != nil && obj.Pkg().Path() == "maps" && (obj.Name() == "Copy" || obj.Name() == "DeleteFunc")
	}
	return false
}
