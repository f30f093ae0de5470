package check_test

import (
	"testing"

	"streamcast/internal/check"
	"streamcast/internal/core"
	"streamcast/internal/hypercube"
)

// TestStaticAllocationBudget: a clean verification allocates per pass and
// per slot — the engine's scratch and Result arrays, the mesh table, the
// audit tables, one generated slice per slot — and nothing per node or per
// transmission: one of either would cost a thousand here. The two-pass,
// map-based verifier made 12 793 allocations on the hypercube below and
// 13 467 on the multi-tree; the one-pass interpreter made 51 and 71, and the
// engine run with its audit observer makes 39 and 40, the Runner's scratch
// included. The budget leaves room for the map inside Neighbors() to grow
// differently under another Go release.
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
	}{
		{"hypercube N=1023", hc, check.HypercubeOptions(hc, 8)},
		{"multitree N=1000 d=3", mt, check.MultiTreeOptions(mt, 9)},
	} {
		got := testing.AllocsPerRun(5, func() {
			rep, err := check.Static(tc.scheme, tc.opt)
			if err != nil || !rep.OK() {
				t.Fatalf("%s: %v %v", tc.name, err, rep)
			}
		})
		if got > budget {
			t.Errorf("%s: %v allocations per check.Static, budget %v", tc.name, got, budget)
		}
	}
}
