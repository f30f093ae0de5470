package lint

import (
	"path/filepath"
	"testing"
)

// TestEffectsGoldenSummaries pins the computed output-reach summaries for
// the fixture package: a direct sink call, reach inherited through one and
// two call edges, and functions that must stay clean.
func TestEffectsGoldenSummaries(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	const base = "streamcast/internal/fixture/effects"
	pkg, err := loader.LoadDir(filepath.Join("testdata", "src", "effects"), base)
	if err != nil {
		t.Fatal(err)
	}
	for _, terr := range pkg.TypeErrors {
		t.Errorf("fixture type error: %v", terr)
	}
	fx := ComputeEffects([]*Package{pkg})
	for _, tc := range []struct {
		fn    string
		emits bool
	}{
		{"emitDirect", true},
		{"viaHelper", true},
		{"chained", true},
		{"aggregate", false},
		{"viaAggregate", false},
	} {
		fe := fx.fns[base+"."+tc.fn]
		if fe == nil {
			t.Fatalf("no summary for %s", tc.fn)
		}
		if fe.Emits != tc.emits {
			t.Errorf("%s: Emits = %v, want %v", tc.fn, fe.Emits, tc.emits)
		}
	}
}
