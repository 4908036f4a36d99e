package vadalink_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
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
	"faultinject.SetErr": "the seam tests inject faults through",
	"faultinject.Clear":  "the seam tests inject faults through",
	// Ablations and differential legs (DESIGN.md §4).
	"datalog.WithNaive":   "naive-evaluation ablation and differential leg",
	"datalog.WithNoIndex": "scan-only ablation and differential leg",
	// Test helpers that live in non-test files so other packages' tests share them.
	"datalog.MustParse":            "test helper shared across packages",
	"graphgen.RandomCommit":        "test helper shared across packages",
	"pg.Builder.PersonWith":        "builds the root scenario tests' graphs",
	"pg.Graph.MustAddEdgeWeighted": "test helper shared across packages",
	"vadalog.CloseLinkProgramT":    "builds the close-link program at a test's threshold",
	"experiments.ReembedRecall":    "Figure 4(e) harness the root ablation benchmark runs",
	// Interface methods, called through sort.Interface or errors.Unwrap.
	"datalog.BudgetExceededError.Unwrap": "errors.Is/As reach it through the Unwrap interface",
	"datalog.keyedFacts.Len":             "sort.Interface method",
	"datalog.keyedFacts.Less":            "sort.Interface method",
	"reasonapi.rowSorter.Len":            "sort.Interface method",
	"reasonapi.rowSorter.Less":           "sort.Interface method",
	"whatif.OpError.Unwrap":              "errors.Is/As reach it through the Unwrap interface",
}

// TestEveryExportHasACaller fails on an exported func or method under
// internal/ that no non-test file of the module (bench/ included) uses,
// unless exportAllowlist names it. A name counts as used when it appears as
// the selector of any selector expression anywhere, or as a bare identifier
// in its own package outside its own declaration. The check is by name, so
// it errs towards "used"; an allowlist entry that no longer names an uncalled
// export fails too, which keeps the list honest.
func TestEveryExportHasACaller(t *testing.T) {
	type decl struct {
		key, dir, name string
		method         bool
		pos            token.Position
	}
	var decls []decl
	selected := map[string]bool{} // names used as x.Name anywhere
	bare := map[string]bool{}     // dir + "\x00" + name used as a bare identifier
	fset := token.NewFileSet()
	err := parseModule(fset, func(path string, f *ast.File) {
		dir := filepath.ToSlash(filepath.Dir(path))
		internal := strings.HasPrefix(dir, "internal/")
		for _, d := range f.Decls {
			fn, _ := d.(*ast.FuncDecl)
			var self *ast.Ident
			if fn != nil {
				self = fn.Name
			}
			if fn != nil && internal && fn.Name.IsExported() {
				key := f.Name.Name + "." + fn.Name.Name
				if fn.Recv != nil {
					key = f.Name.Name + "." + recvName(fn.Recv.List[0].Type) + "." + fn.Name.Name
				}
				decls = append(decls, decl{key, dir, fn.Name.Name, fn.Recv != nil, fset.Position(fn.Pos())})
			}
			var visit func(n ast.Node) bool
			visit = func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.SelectorExpr:
					// x.Sel is a use by selector, never a bare identifier
					// of this package.
					selected[x.Sel.Name] = true
					ast.Inspect(x.X, visit)
					return false
				case *ast.Ident:
					if x != self && !usesSelf(fn, x) {
						bare[dir+"\x00"+x.Name] = true
					}
				}
				return true
			}
			ast.Inspect(d, visit)
		}
	})
	if err != nil {
		t.Fatal(err)
	}

	uncalled := map[string]token.Position{}
	for _, d := range decls {
		if selected[d.name] || (!d.method && bare[d.dir+"\x00"+d.name]) {
			continue
		}
		uncalled[d.key] = d.pos
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

// usesSelf reports whether id is fn's own name used inside fn (recursion),
// which does not count as a caller. fn is nil outside a func declaration.
func usesSelf(fn *ast.FuncDecl, id *ast.Ident) bool {
	return fn != nil && fn.Recv == nil && id.Name == fn.Name.Name
}

// recvName is the type name of a method receiver: T, *T, T[P] or *T[P].
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}
