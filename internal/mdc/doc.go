// Package mdc layers Multiple Description Coding over the multi-tree
// scheme, the combination the paper points at in Section 1: the stream is
// encoded into d descriptions and description k rides tree T_k (packets
// congruent to k mod d). A receiver plays round r — one packet from each
// description — at its scheduled slot with whatever descriptions arrived
// on time: missing descriptions degrade quality smoothly instead of
// stalling playback.
//
// Because the trees are interior-disjoint (the property behind Theorem 2),
// any single node failure sits on the interior of at most one tree, so its
// subtree loses at most one of the d descriptions — the
// graceful-degradation property the experiment measures.
//
// Entry points: RoundQuality scores one receiver's per-round description
// completeness from a slotsim.Result and the slotsim.Arrivals its run kept;
// SystemQuality aggregates it;
// internal/experiments.MDCGracefulDegradation reports quality as a
// function of loss rate.
package mdc
