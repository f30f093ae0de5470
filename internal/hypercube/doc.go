// Package hypercube implements the hypercube-based streaming scheme of
// Section 3 of the paper, a generalization of Farley's broadcast scheme to
// an infinite stream.
//
// Single cube (N = 2^k − 1 receivers plus the source as vertex 0): in slot
// t the 2^k vertices are paired along dimension dim(t) = (t−1) mod k. The
// source introduces packet j to vertex 2^dim(j) at slot j; thereafter the
// holder set of packet j doubles every slot (an affine subcube), so packet
// j reaches every vertex at the end of slot j+k and every node consumes
// one packet per slot with a buffer of just 2 packets (Proposition 1:
// delay k, buffer 2).
//
// In the final spreading slot of packet j, the vertex paired with the
// source — always 2^dim(j), the packet's original introducee — has nothing
// to send inside the cube. For arbitrary N (Section 3.2), that freed
// sender forwards the packet it is about to consume to the next hypercube
// in a chain, acting as a rate-1 "logical source" that starts k slots
// late; the construction recurses until all nodes are covered
// (Proposition 2, Theorem 4: worst-case delay O(log² N) with O(log N)
// neighbors and O(1) buffers).
//
// When the source can send d packets per slot, the receivers are divided
// into d near-equal groups, each streaming over its own chain — worst-case
// delay O(log²(N/d)) with O(log(N/d)) neighbors.
//
// Entry points: New(n, d) builds the chained-hypercube scheme as a
// core.Scheme (always run in core.Live mode); NewWithDimOrder fixes the
// pairing-dimension rotation for the figure renderers; CubeDims exposes
// the chain structure for the delay analysis in internal/analysis
// (Proposition2WorstDelay). AddRelocations and DeleteRelocations
// (dynamics.go) count the members a join or a leave relocates when the
// members keep decomposition order: the churn cost the paper leaves open.
package hypercube
