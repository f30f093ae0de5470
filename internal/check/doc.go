// Package check statically verifies a streaming scheme over a stated horizon
// (see STATIC_ANALYSIS.md).
//
// The paper's guarantees are structural: Theorem 2 rests on d
// interior-disjoint d-ary trees, the slot model allows one send and one
// receive per node per slot, and Proposition 1's Farley-style rounds fix the
// hypercube delay in closed form. Static verifies those properties with one
// run of the scheme on the slot engine (slotsim), the one production reading
// of the slot model, plus the audits only this package does:
//
//   - the slot model, enforced by the engine: per-slot send/receive capacity
//     (source d, receivers 1, or scheme caps), packet availability — nobody
//     forwards a packet before holding it, which on a cluster backbone is
//     exactly Tc-consistency — ids in range, no self transmissions and no
//     duplicate deliveries;
//   - interior-disjointness, derived from the executed schedule: a node that
//     relays packets of more than one residue class mod d is interior in
//     more than one tree;
//   - per-tree fan-out <= d and per-node neighbor degree <= the paper bound;
//   - mesh/schedule consistency — every executed edge appears in both
//     endpoints' neighbor lists;
//   - completeness of every receiver's window, and worst-case delay and
//     buffer, read off the engine's Result, cross-checked against the
//     closed-form bounds of Theorem 2, Propositions 1/2, and Theorem 1.
//
// The tree and mesh audits are an obs.Observer fed by the engine's Transmit
// events; the observer also makes the engine run every slot of the horizon
// rather than stop once the window is complete. Slot-model findings take the
// engine's first-violation semantics: the run stops at the first broken
// constraint, which becomes one Issue with the engine's kind string, and the
// offending transmission is audited like an executed one. Structural and
// bound findings stay multi-issue. They are filed in a fixed order: ids the
// mesh walk yields outside 1..N (a range finding each, as the walk yields
// them), tree findings as the run meets them, the slot-model violation,
// degree overflows by id, missing mesh edges in schedule order, and — after a
// run without a violation — incomplete windows and broken bounds.
// testdata/pinned_reports.txt pins them with their text.
//
// The audit tables are sized, and the mesh is read into one flat id-indexed
// table, at the run's first slot: an oversized verification is refused by the
// engine's core.MaxArrivalCells gate before either happens. The mesh comes
// from the scheme's EachNeighbors walk; no map is built. A
// clean verification allocates nothing per node or per transmission beyond
// the engine's own per-run arrays and that table.
//
// Entry points: Static runs the verifier with explicit Options, whose Run is
// the slotsim.Options the schedule is executed under — check keeps no copy
// of an engine setting. Static drops the fields of a run that are not the
// schedule's: SkipUnavailable, the arrival record and the churn source.
// MultiTreeOptions, HypercubeOptions and ClusterOptions derive the right
// Options (bounds and verifier horizon included) for the paper
// constructions. A scenario's check directive runs the verifier as a
// preflight on the run's own engine options, before any fault plan is
// applied, over the family's verifier horizon where it derives one.
package check
