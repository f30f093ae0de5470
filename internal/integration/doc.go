// Package integration runs cross-module differential tests: every scheme
// family is executed by the slotsim engine and by
// a short reference interpreter of the paper's slot model that shares none of
// its code (oracle_test.go), and their Results, arrival cells and verdicts
// must agree — over the pinned corpora and under a fuzzer; declared neighbor
// sets must cover actual traffic; and analytic bounds must hold on every
// configuration in the matrix. The package has no non-test code — it exists
// to hold the suite that ties the schemes (multitree, hypercube, cluster,
// baseline, gossip, randreg), the engine (slotsim), the verifier (check) and
// the bounds (analysis) together.
package integration
