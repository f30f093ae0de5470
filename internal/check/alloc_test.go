package check_test

import (
	"runtime"
	"testing"

	"streamcast/internal/check"
	"streamcast/internal/core"
	"streamcast/internal/hypercube"
)

// TestStaticAllocationBudget: a clean verification allocates per pass and
// per slot — the engine's scratch and Result arrays, the flat mesh table and
// its row spans, the audit tables, one generated slice per slot — and nothing
// per node or per transmission: one of either would cost a thousand here. The
// two-pass, map-based verifier made 12 793 allocations on the hypercube below
// and 13 467 on the multi-tree; the one-pass interpreter made 51 and 71, the
// engine run that read the Neighbors() map 39 and 40, and the run that reads
// the scheme's neighbor walk 23 of each. The count budget leaves room for
// another Go release's runtime. The byte budgets sit about a tenth above the
// walk's 115 KB and 139 KB per run; reading the Neighbors() map again costs
// 256 KB and 262 KB.
func TestStaticAllocationBudget(t *testing.T) {
	const budget = 120
	hc, err := hypercube.New(1023, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, mt := mustMultiTree(t, 1000, 3)
	for _, tc := range []struct {
		name   string
		scheme core.Scheme
		opt    check.Options
		bytes  uint64
	}{
		{"hypercube N=1023", hc, check.HypercubeOptions(hc, 8), 128 << 10},
		{"multitree N=1000 d=3", mt, check.MultiTreeOptions(mt, 9), 152 << 10},
	} {
		run := func() {
			rep, err := check.Static(tc.scheme, tc.opt)
			if err != nil || !rep.OK() {
				t.Fatalf("%s: %v %v", tc.name, err, rep)
			}
		}
		if got := testing.AllocsPerRun(5, run); got > budget {
			t.Errorf("%s: %v allocations per check.Static, budget %v", tc.name, got, budget)
		}
		const runs = 5
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		if got := (after.TotalAlloc - before.TotalAlloc) / runs; got > tc.bytes {
			t.Errorf("%s: %d bytes per check.Static, budget %d", tc.name, got, tc.bytes)
		}
	}
}
