package pg

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// TestOneWritePath fails when a non-test file of this package writes the
// structure of a Graph or an Overlay — assigns into, deletes from, clears,
// increments or reassigns one of the fields below — outside the functions
// allowed to: the two mutators, the constructors, Clone, and restore, which
// builds a graph verbatim and walks checkEdge itself. Every other write goes
// through a Replay, and so through check (DESIGN.md §11.1).
func TestOneWritePath(t *testing.T) {
	guarded := map[string]bool{
		"nodes": true, "edges": true, "out": true, "in": true,
		"byNodeLabel": true, "byEdgeLabel": true, "nextNode": true, "nextEdge": true,
		"numNodes": true, "numEdges": true,
		"addedNodes": true, "addedEdges": true, "removedNodes": true, "removedEdges": true,
		"editedEdges": true, "journal": true,
	}
	allowed := map[string]bool{
		"Graph.Replay": true, "Overlay.Replay": true,
		"New": true, "NewOverlay": true, "Graph.Clone": true, "restore": true,
	}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	checked := 0
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		checked++
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			name := fn.Name.Name
			if fn.Recv != nil {
				recv := fn.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				name = recv.(*ast.Ident).Name + "." + name
			}
			if allowed[name] {
				continue
			}
			written := func(x ast.Expr) {
				for {
					ix, ok := x.(*ast.IndexExpr)
					if !ok {
						break
					}
					x = ix.X
				}
				if sel, ok := x.(*ast.SelectorExpr); ok && guarded[sel.Sel.Name] {
					t.Errorf("%s: %s writes %s outside the mutator; build a Mutation and Replay it",
						fset.Position(sel.Pos()), name, sel.Sel.Name)
				}
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						written(lhs)
					}
				case *ast.IncDecStmt:
					written(n.X)
				case *ast.CallExpr:
					if id, ok := n.Fun.(*ast.Ident); ok && (id.Name == "delete" || id.Name == "clear") && len(n.Args) > 0 {
						written(n.Args[0])
					}
				}
				return true
			})
		}
	}
	if checked == 0 {
		t.Fatal("no non-test files parsed")
	}
}
