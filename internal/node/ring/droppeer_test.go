package ring

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// TestGeometriesNeverCallDropPeer: eviction belongs to the runtime — a
// failed Host.Alive evicts there — so no non-test file of an in-tree
// geometry names DropPeer except to declare it, not even its own.
func TestGeometriesNeverCallDropPeer(t *testing.T) {
	fset := token.NewFileSet()
	for _, dir := range []string{"../chordring", "../pastryring", "../kadring"} {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		parsed := 0
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			parsed++
			ast.Inspect(f, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "DropPeer" {
					t.Errorf("%s: geometry code uses DropPeer; eviction is the runtime's", fset.Position(sel.Pos()))
				}
				return true
			})
		}
		if parsed == 0 {
			t.Fatalf("no non-test Go files in %s", dir)
		}
	}
}
