// Package fixture exercises the construction analyzer: scheme
// constructors must only be called through the internal/spec registry.
package fixture

import (
	"streamcast/internal/baseline"
	"streamcast/internal/cluster"
	"streamcast/internal/core"
	"streamcast/internal/gossip"
	"streamcast/internal/hypercube"
	"streamcast/internal/multitree"
)

// Direct constructs every banned family by hand — the seven-file-edit
// pattern the registry exists to end.
func Direct() {
	m, _ := multitree.New(100, 3, multitree.Greedy)   // want `direct call of streamcast/internal/multitree\.New`
	_, _ = hypercube.New(100, 3)                      // want `direct call of streamcast/internal/hypercube\.New`
	_, _ = cluster.New(cluster.Config{})              // want `direct call of streamcast/internal/cluster\.New`
	_, _ = baseline.NewChain(10)                      // want `direct call of streamcast/internal/baseline\.NewChain`
	_, _ = baseline.NewSingleTree(10, 2)              // want `direct call of streamcast/internal/baseline\.NewSingleTree`
	_, _ = gossip.New(10, 3, 5, gossip.PullOldest, 1) // want `direct call of streamcast/internal/gossip\.New`
	_ = multitree.NewScheme(m, core.PreRecorded)      // wrapper constructors stay callable
}

// Dynamic uses the churn machinery and scheme wrappers, which are not
// banned: they are the registry's own building blocks.
func Dynamic() {
	dy, _ := multitree.NewDynamic(30, 3, false)
	_, _ = dy.Snapshot()
	_, _ = hypercube.NewDynamicHC(15)
}

// Suppressed carries the explicit escape hatch for intentional low-level
// construction (trace renderers, construction benchmarks).
func Suppressed() {
	//lint:ignore construction fixture exercises the suppression path
	_, _ = multitree.New(10, 2, multitree.Structured)
}
