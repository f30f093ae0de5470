// Package multitree implements the multi-tree streaming scheme of Section 2
// of the paper: d interior-disjoint d-ary trees over N receivers, all
// rooted at the source S, together with the round-robin transmission
// schedule that delivers one packet per node per slot with no collisions.
//
// Positions within a tree are numbered in breadth-first order with the
// source at position 0 and receivers at positions 1..NP, where
// NP = d·⌈N/d⌉ is the padded size (positions N+1..NP hold dummy leaves,
// exactly as in the paper). Interior positions are 1..I with I = NP/d − 1;
// every interior position has exactly d children. Because each receiver is
// interior in at most one tree, it relays at most one packet per slot —
// the paper's key device for meeting the unit send capacity.
//
// Key results reproduced here: Theorem 2 — worst-case playback delay h·d
// where h is the tree height, with O(1) buffers per node; Theorem 3 — a
// matching lower bound on the average delay for complete trees (both in
// internal/analysis). Section 2.3's degree optimization picks the d
// minimizing h·d.
//
// Entry points: New builds the d trees via either Construction (Greedy
// packs interior positions first; Structured follows the paper's explicit
// layout); NewScheme wraps a MultiTree as a core.Scheme for the engines,
// emitting each slot from per-residue, per-tree firing lists;
// MultiTree.Height, Pos and IsDummy expose the layout. LiveScheme
// (live.go) is the family under churn: NewLiveScheme builds it over members
// named MemberName(1)..MemberName(n), and its Apply is the one way a member
// joins or leaves. Apply runs the appendix's membership swaps (dynamics.go)
// on one MultiTree, whose ids are the members' stable ids and whose dummy
// mask follows the joins and leaves, then moves the ends of its Scheme's
// firing lists when the trees grew or shrank and re-reads the positions
// the op logged, so static and live runs share one emission loop; Validate
// checks the layout as it stands and Members lists it. Its NumReceivers is
// the id space the family has allocated, which is what a churned run's
// Result covers. ChurnImpact (impact.go) bounds the last op's blast radius
// statically: each survivor's first receive slots at its positions before
// the op (the op's swaps undone) and after it, compared by stable id on the
// family itself.
package multitree
