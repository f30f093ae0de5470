package spec

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// bannedConstructors maps an import path to the constructor names that must
// only be called through the scheme registry. The churn-capable family
// (multitree.NewLiveScheme, whose Apply is its one membership door) and the
// scheme wrapper over an already built topology (multitree.NewScheme) stay
// callable: the ban covers the flag-plumbing duplication the registry exists
// to end, not the building blocks the registry itself is made of.
var bannedConstructors = map[string][]string{
	"streamcast/internal/multitree": {"New"},
	"streamcast/internal/hypercube": {"New"},
	"streamcast/internal/cluster":   {"New"},
	"streamcast/internal/baseline":  {"NewChain", "NewSingleTree"},
	"streamcast/internal/gossip":    {"New"},
	"streamcast/internal/randreg":   {"New", "NewDigraph"},
}

// exemptPackages may call the constructors anywhere: each scheme package
// itself and the registry that wraps them.
var exemptPackages = []string{
	"internal/multitree",
	"internal/hypercube",
	"internal/cluster",
	"internal/baseline",
	"internal/gossip",
	"internal/randreg",
	"internal/spec",
}

// guardedTestTrees are the module sub-trees (relative to the repo root) whose
// _test.go files the ban covers too, beside the root package's: the layers
// above the registry. Low-level engine and scheme unit tests elsewhere keep
// their hand-built fixtures on purpose.
var guardedTestTrees = []string{
	"cmd",
	"examples",
	"internal/experiments",
	"internal/integration",
}

// guarded reports whether the ban applies to the file at rel, a slash path
// relative to the repo root.
func guarded(rel string) bool {
	dir := filepath.ToSlash(filepath.Dir(rel))
	if !strings.HasSuffix(rel, "_test.go") {
		return !slices.Contains(exemptPackages, dir)
	}
	if dir == "." {
		return true
	}
	return slices.ContainsFunc(guardedTestTrees, func(tree string) bool {
		return dir == tree || strings.HasPrefix(dir, tree+"/")
	})
}

// TestNoStrayConstruction asserts that every construction site outside the
// scheme packages and the registry routes through the registry: every
// non-test file of the module, and the test files of the layers above the
// registry. A scheme built around a spec.Scenario skips parameter validation
// and the single horizon derivation, and is invisible to the sweeps that test
// "every registered family". A deliberate exception carries a
// `//lint:ignore construction <reason>` comment on the call line or the line
// above it.
func TestNoStrayConstruction(t *testing.T) {
	files := moduleFiles(t, guarded)
	if len(files) < 50 {
		t.Fatalf("scanned only %d files; the walk is broken", len(files))
	}

	fset := token.NewFileSet()
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}

		// Local names of the banned packages actually imported here.
		banned := map[string][]string{}
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			names, ok := bannedConstructors[p]
			if !ok {
				continue
			}
			local := filepath.Base(p)
			if imp.Name != nil {
				local = imp.Name.Name
			}
			banned[local] = names
		}
		if len(banned) == 0 {
			continue
		}

		// Lines suppressed by a //lint:ignore construction directive.
		ignored := map[int]bool{}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if strings.HasPrefix(text, "lint:ignore construction") {
					line := fset.Position(c.Pos()).Line
					ignored[line] = true
					ignored[line+1] = true
				}
			}
		}

		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			names, ok := banned[id.Name]
			if !ok || !slices.Contains(names, sel.Sel.Name) {
				return true
			}
			if pos := fset.Position(call.Pos()); !ignored[pos.Line] {
				t.Errorf("%s:%d: direct %s.%s call; build the scheme from a spec.Scenario via the registry",
					pos.Filename, pos.Line, id.Name, sel.Sel.Name)
			}
			return true
		})
	}
}

// moduleFiles returns the module's Go files (testdata, hidden directories and
// nested modules left out) whose slash path relative to the repo root keep
// accepts.
func moduleFiles(t *testing.T, keep func(rel string) bool) []string {
	t.Helper()
	root := filepath.Join("..", "..")
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == root {
				return nil
			}
			if name := d.Name(); name == "testdata" || strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		if strings.HasSuffix(path, ".go") && keep(filepath.ToSlash(rel)) {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestNeighborMapIsBenchOnly asserts that the program reads the mesh through
// EachNeighbors only: no non-test file of the module calls a Neighbors()
// method, and every Neighbors() method is the one-line view
// `return core.NeighborMap(…, recv.EachNeighbors)`. The map is kept for the
// benchmark harness, a module of its own.
func TestNeighborMapIsBenchOnly(t *testing.T) {
	files := moduleFiles(t, func(rel string) bool { return !strings.HasSuffix(rel, "_test.go") })
	if len(files) < 50 {
		t.Fatalf("scanned only %d files; the walk is broken", len(files))
	}
	fset := token.NewFileSet()
	views := 0
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Neighbors" && len(n.Args) == 0 {
					pos := fset.Position(n.Pos())
					t.Errorf("%s:%d: a Neighbors() call; read the mesh with EachNeighbors", pos.Filename, pos.Line)
				}
			case *ast.FuncDecl:
				if n.Recv == nil || n.Name.Name != "Neighbors" {
					return true
				}
				if !isNeighborMapView(n) {
					pos := fset.Position(n.Pos())
					t.Errorf("%s:%d: Neighbors is not `return core.NeighborMap(…, recv.EachNeighbors)`", pos.Filename, pos.Line)
				}
				views++
			}
			return true
		})
	}
	if views < 8 {
		t.Errorf("found %d Neighbors() methods, want at least the eight schemes'", views)
	}
}

// isNeighborMapView reports whether a Neighbors method's body is one return
// of core.NeighborMap over its receiver's EachNeighbors.
func isNeighborMapView(fn *ast.FuncDecl) bool {
	if fn.Body == nil || len(fn.Body.List) != 1 || len(fn.Recv.List) != 1 || len(fn.Recv.List[0].Names) != 1 {
		return false
	}
	ret, ok := fn.Body.List[0].(*ast.ReturnStmt)
	if !ok || len(ret.Results) != 1 {
		return false
	}
	call, ok := ret.Results[0].(*ast.CallExpr)
	if !ok || len(call.Args) != 3 {
		return false
	}
	if fun, ok := call.Fun.(*ast.SelectorExpr); !ok || fun.Sel.Name != "NeighborMap" {
		return false
	}
	walk, ok := call.Args[2].(*ast.SelectorExpr)
	if !ok || walk.Sel.Name != "EachNeighbors" {
		return false
	}
	recv, ok := walk.X.(*ast.Ident)
	return ok && recv.Name == fn.Recv.List[0].Names[0].Name
}
