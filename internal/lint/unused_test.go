package lint

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnly lists the exported declarations under internal/ that no non-test
// file of the module or of bench/ uses, each with the reason it stays. A key
// is "<import path>.<Name>", "<import path>.<Type>.<Method>", or
// "<import path>.*" for a whole package. An entry marked "unreviewed" was
// found when the scan was introduced and is a candidate for deletion.
var testOnly = map[string]string{
	"streamcast/internal/obs.Recorder":                     "test helper: tests in six packages record events with it",
	"streamcast/internal/obs.SlotFunc":                     "test helper: tests in four packages observe a run with a function",
	"streamcast/internal/slotsim.VerifyNeighbors":          "test helper: the partner audit the scheme tests run",
	"streamcast/internal/check.Report.HasKind":             "test helper: asserts which issue kind a report holds",
	"streamcast/internal/slotsim.Arrivals.Row":             "test helper: one node's arrivals as a slice",
	"streamcast/internal/faults.RandomPlan":                "test helper: the seeded plan generator of the chaos tests",
	"streamcast/internal/lint.*":                           "the analyzers run inside go test, which is their one caller",
	"streamcast/internal/analysis.*":                       "paper reference: closed-form bounds the tests check runs against",
	"streamcast/internal/graph.*":                          "paper reference: the set-splitting construction its tests check",
	"streamcast/internal/hypercube.NewWithDimOrder":        "paper reference: the pairing-order ablation its tests check",
	"streamcast/internal/check.KindSendCap":                "issue-kind vocabulary: tests match the engine's violation kinds by it",
	"streamcast/internal/check.KindRecvCap":                "issue-kind vocabulary: tests match the engine's violation kinds by it",
	"streamcast/internal/check.KindDuplicate":              "issue-kind vocabulary: tests match the engine's violation kinds by it",
	"streamcast/internal/obs.ReadEvents":                   "the JSONL trace format's reader, documented for outside tools",
	"streamcast/internal/stats.StreamingHist.Observe":      "reference: tests hold ObserveN and the Metrics fold to it",
	"streamcast/internal/faults.Injector.Plan":             "unreviewed",
	"streamcast/internal/faults.LiveChurn.Ops":             "unreviewed",
	"streamcast/internal/hypercube.Dynamic.Lazy":           "unreviewed",
	"streamcast/internal/hypercube.Dynamic.Scheme":         "unreviewed",
	"streamcast/internal/multitree.Dynamic.Degree":         "unreviewed",
	"streamcast/internal/multitree.Interior":               "unreviewed",
	"streamcast/internal/multitree.LiveScheme.Dynamic":     "unreviewed",
	"streamcast/internal/multitree.MultiTree.InteriorTree": "unreviewed",
	"streamcast/internal/randreg.Scheme.Digraph":           "unreviewed",
}

// declKey names a package-level object, or a method by its receiver's type.
func declKey(obj types.Object) string {
	if obj.Pkg() == nil {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			named, ok := t.(*types.Named)
			if !ok {
				return ""
			}
			return obj.Pkg().Path() + "." + named.Obj().Name() + "." + obj.Name()
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// interfaceMethods adds the method names of every interface type declared
// by pkg or by a package it imports, directly or not.
func interfaceMethods(pkg *types.Package, names map[string]bool, seen map[*types.Package]bool) {
	if seen[pkg] {
		return
	}
	seen[pkg] = true
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				for i := 0; i < it.NumMethods(); i++ {
					names[it.Method(i).Name()] = true
				}
			}
		}
	}
	for _, imp := range pkg.Imports() {
		interfaceMethods(imp, names, seen)
	}
}

// receiverIdents returns the identifiers of the file's method receiver
// lists: naming a type there is no use of it.
func receiverIdents(f *ast.File) map[*ast.Ident]bool {
	out := map[*ast.Ident]bool{}
	for _, decl := range f.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv != nil {
			ast.Inspect(fd.Recv, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					out[id] = true
				}
				return true
			})
		}
	}
	return out
}

// loaded caches loadModule's packages by directory: the module-wide tests
// share one load.
var loaded = map[string][]*Package{}

// loadModule type-checks the non-test files of every package of the module
// that holds dir, once per test binary. It skips the test in -short mode.
func loadModule(t *testing.T, dir string) []*Package {
	t.Helper()
	if testing.Short() {
		t.Skip("full-module load in -short mode")
	}
	if pkgs, ok := loaded[dir]; ok {
		return pkgs
	}
	loader, err := NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadModule()
	if err != nil {
		t.Fatal(err)
	}
	loaded[dir] = pkgs
	return pkgs
}

// TestNoTestOnlyExports fails when an exported top-level declaration under
// internal/ has no use in any non-test file of the module or of bench/. A
// type named only in its own methods' receivers counts as unused. A method
// named like a method of an interface the code, the standard library or an
// interface literal declares is exempt: it may be called through it. Production code that only
// tests call is either a test helper that belongs in testOnly or dead code.
func TestNoTestOnlyExports(t *testing.T) {
	pkgs := append(loadModule(t, "."), loadModule(t, filepath.Join("..", "..", "bench"))...)
	used := map[string]bool{}
	ifaceMethods := map[string]bool{"Error": true} // error's, in no package scope
	seen := map[*types.Package]bool{}
	for _, pkg := range pkgs {
		recv := map[*ast.Ident]bool{}
		for _, f := range pkg.Files {
			for id := range receiverIdents(f) {
				recv[id] = true
			}
		}
		for id, obj := range pkg.Info.Uses {
			if recv[id] {
				continue
			}
			if fn, ok := obj.(*types.Func); ok {
				obj = fn.Origin()
			}
			used[declKey(obj)] = true
		}
		for _, obj := range pkg.Info.Defs {
			if obj != nil && obj.Pkg() != nil {
				interfaceMethods(obj.Pkg(), ifaceMethods, seen)
				break
			}
		}
		// An interface literal, as in a type assertion, names methods too.
		for _, tv := range pkg.Info.Types {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok {
				for i := 0; i < it.NumMethods(); i++ {
					ifaceMethods[it.Method(i).Name()] = true
				}
			}
		}
	}

	declared := map[string]bool{}
	var unused []string
	for _, pkg := range pkgs {
		if !internalPackage(pkg.Path) {
			continue
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				var idents []*ast.Ident
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Recv != nil && ifaceMethods[d.Name.Name] {
						continue
					}
					idents = append(idents, d.Name)
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							idents = append(idents, s.Name)
						case *ast.ValueSpec:
							idents = append(idents, s.Names...)
						}
					}
				}
				for _, id := range idents {
					if !id.IsExported() {
						continue
					}
					key := declKey(pkg.Info.Defs[id])
					if key == "" {
						continue
					}
					declared[key] = true
					if !used[key] && testOnly[key] == "" && testOnly[pkg.Path+".*"] == "" {
						unused = append(unused, key)
					}
				}
			}
		}
	}
	sort.Strings(unused)
	for _, key := range unused {
		t.Errorf("%s is exported but no non-test file uses it: delete it, or list it in testOnly with the reason it stays", key)
	}
	for key := range testOnly {
		if pkg, ok := strings.CutSuffix(key, ".*"); ok {
			key = pkg
			found := false
			for _, p := range pkgs {
				found = found || p.Path == pkg
			}
			if !found {
				t.Errorf("testOnly lists package %s, which the module does not have", pkg)
			}
			continue
		}
		switch {
		case !declared[key]:
			t.Errorf("testOnly lists %s, which is not an exported declaration under internal/", key)
		case used[key]:
			t.Errorf("testOnly lists %s, which non-test code now uses: drop the entry", key)
		}
	}
}
