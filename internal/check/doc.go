// Package check statically verifies a streaming scheme before any slot is
// simulated (see STATIC_ANALYSIS.md).
//
// The slotsim engines detect a broken schedule dynamically — a capacity or
// holds violation surfaces mid-run, after simulation time has been spent —
// yet the paper's guarantees are structural: Theorem 2 rests on d
// interior-disjoint d-ary trees, the slot model allows one send and one
// receive per node per slot, and Proposition 1's Farley-style rounds fix the
// hypercube delay in closed form. Static verifies exactly those properties
// in one pass over the schedule — an arrival-time relaxation over the
// scheme's own Transmissions, with per-link latency, that tests each edge
// against the mesh as it reads it — followed by a scan of the arrival matrix
// it filled:
//
//   - per-slot send/receive capacity (source d, receivers 1, or scheme caps);
//   - packet availability — nobody forwards a packet before holding it,
//     which on a cluster backbone is exactly Tc-consistency;
//   - interior-disjointness, derived from the schedule itself: a node that
//     relays packets of more than one residue class mod d is interior in
//     more than one tree;
//   - per-tree fan-out <= d and per-node neighbor degree <= the paper bound;
//   - mesh/schedule consistency — every scheduled edge appears in
//     Neighbors();
//   - worst-case delay and buffer cross-checked against the closed-form
//     bounds of Theorem 2, Propositions 1/2, and Theorem 1.
//
// Issue kinds deliberately reuse the slotsim Violation kind strings where
// the two layers see the same defect, so the checker/engine agreement tests
// can assert that a statically rejected mesh fails dynamically with the same
// class of violation.
//
// Every slot is generated once and Neighbors() is read once, into flat
// state: one int32 arrival matrix, the mesh as an id-indexed table of the
// scheme's own lists, per-node residue masks and child cells. A clean
// verification allocates nothing per node or per transmission. Findings are
// filed in a fixed order — the interpreter's, slot by slot; degree overflows
// by id; missing mesh edges in schedule order; incomplete windows and broken
// bounds — which testdata/pinned_reports.txt pins with their text.
//
// Entry points: Static runs the verifier with explicit Options;
// MultiTreeOptions, HypercubeOptions and ClusterOptions derive the right
// Options (bounds included) for the paper constructions. cmd/streamsim
// exposes the verifier as the -check preflight flag.
package check
