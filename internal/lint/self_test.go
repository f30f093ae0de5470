package lint

import "testing"

// TestRepositoryIsClean runs every analyzer over the whole module. The
// repository must stay diagnostic-free; a deliberate exception is spelled in
// the code (`_ = f()`, an int(...) bridge, sorted keys), not listed here.
func TestRepositoryIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module load in -short mode")
	}
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadModule()
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("loaded only %d packages; module discovery is broken", len(pkgs))
	}
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			t.Errorf("%s: type error: %v", pkg.Path, terr)
		}
	}
	for _, d := range RunAnalyzers(pkgs, All()) {
		t.Errorf("%s", d)
	}
}
