package vadalink_test

import (
	"go/ast"
	"go/token"
	"sort"
	"strings"
	"testing"
)

// optionAllowlist names the exported option fields under internal/ that no
// non-test file outside their declaring file sets but that stay on purpose,
// keyed as "package.Type.Field", each with its reason.
var optionAllowlist = map[string]string{
	"replication.NodeOptions.PeersFunc": "the crash harness and reasonapi tests learn peer addresses at runtime",
	"embed.Config.P":                    "node2vec's return parameter; BenchmarkAblationAliasSampling sets it",
	"embed.Config.Q":                    "node2vec's in-out parameter; BenchmarkAblationAliasSampling sets it",
	"embed.Config.LinearSampling":       "the alias-versus-linear sampling ablation of DESIGN.md §4",
	"closelink.Options.MinProduct":      "frozen bench/batch.go spells closelink.Options{}, so the type changes only with the benchmark",
	"closelink.Options.MaxDepth":        "frozen bench/batch.go spells closelink.Options{}, so the type changes only with the benchmark",
	"datalog.Budget.MaxDeltaQueue":      "safety limit reachable through reasonapi.Config.Budget",
	"datalog.Budget.MaxIndexBytes":      "safety limit reachable through reasonapi.Config.Budget",
	"datalog.Budget.CheckEvery":         "safety limit reachable through reasonapi.Config.Budget",
	"backoff.Policy.Rand":               "the seam for deterministic jitter",
	"vadalog.GenericConfig.Classifier":  "belongs to RunGeneric, kept for the cross-check of ROADMAP item 11",
}

// optionTypes are the option structs whose names do not end in Options or
// Config.
var optionTypes = map[string]bool{"datalog.Budget": true, "backoff.Policy": true}

// TestEveryOptionHasASetter fails on an exported field of an option struct
// under internal/ — an exported struct type whose name is or ends in
// Options or Config, plus optionTypes — that no non-test file of the module
// (bench/ included) sets outside the file declaring the type, unless
// optionAllowlist names it. A field counts as set when a composite-literal
// key `Field:` or an assignment `x.Field =` names it. The check is by name,
// so it errs towards "set"; an allowlist entry that no longer names an unset
// field fails too, which keeps the list honest.
func TestEveryOptionHasASetter(t *testing.T) {
	type field struct {
		key, file string
		pos       token.Position
	}
	var fields []field
	setIn := map[string]map[string]bool{} // field name -> files that set it
	set := func(name, file string) {
		if setIn[name] == nil {
			setIn[name] = map[string]bool{}
		}
		setIn[name][file] = true
	}
	fset := token.NewFileSet()
	err := parseModule(fset, func(path string, f *ast.File) {
		internal := strings.HasPrefix(path, "internal/")
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.TypeSpec:
				st, ok := x.Type.(*ast.StructType)
				name := x.Name.Name
				if !ok || !internal || !x.Name.IsExported() {
					return true
				}
				if !strings.HasSuffix(name, "Options") && !strings.HasSuffix(name, "Config") &&
					!optionTypes[f.Name.Name+"."+name] {
					return true
				}
				for _, fl := range st.Fields.List {
					for _, id := range fl.Names {
						if id.IsExported() {
							fields = append(fields, field{f.Name.Name + "." + name + "." + id.Name, path, fset.Position(id.Pos())})
						}
					}
				}
			case *ast.KeyValueExpr:
				if id, ok := x.Key.(*ast.Ident); ok {
					set(id.Name, path)
				}
			case *ast.AssignStmt:
				if x.Tok == token.DEFINE {
					return true
				}
				for _, lhs := range x.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok {
						set(sel.Sel.Name, path)
					}
				}
			}
			return true
		})
	})
	if err != nil {
		t.Fatal(err)
	}

	unset := map[string]token.Position{}
	for _, fl := range fields {
		name := fl.key[strings.LastIndexByte(fl.key, '.')+1:]
		setter := false
		for file := range setIn[name] {
			setter = setter || file != fl.file
		}
		if !setter {
			unset[fl.key] = fl.pos
		}
	}
	t.Logf("%d exported option fields under internal/, %d without a setter", len(fields), len(unset))
	var fails []string
	for key, pos := range unset {
		if _, ok := optionAllowlist[key]; !ok {
			fails = append(fails, pos.String()+": "+key+" is set by no non-test file; make it a constant or allowlist it with a reason")
		}
	}
	for key := range optionAllowlist {
		if _, ok := unset[key]; !ok {
			fails = append(fails, "optionAllowlist entry "+key+" names no unset option field; remove the entry")
		}
	}
	sort.Strings(fails)
	for _, f := range fails {
		t.Error(f)
	}
}
