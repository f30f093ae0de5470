// Package integration runs cross-module differential tests: every scheme
// family is executed by the two independent engines (the slotsim matrix
// engine, compiled and interpreted, and the concurrent message-passing
// runtime) and their per-node measurements must agree; declared neighbor sets must cover
// actual traffic; and analytic bounds must hold on every configuration in
// the matrix. The package has no non-test code — it exists to hold the
// suite that ties the schemes (multitree, hypercube, cluster, baseline,
// gossip), the engines (slotsim, runtime) and the bounds (analysis)
// together.
package integration
