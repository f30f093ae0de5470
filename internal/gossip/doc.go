// Package gossip implements an unstructured, best-effort pull mesh — the
// class of data-driven overlay (CoolStreaming-style) that the paper's
// introduction contrasts with its structured schemes. Each node knows a
// small random neighbor set; every slot it asks one random neighbor for a
// missing packet, the neighbor serving at most one request (the source up
// to d). There are no delivery guarantees: the experiments show exactly
// the heavy delay tail and occasional starvation that motivate the paper's
// provable-QoS constructions.
//
// The mesh honours the same communication model as the structured schemes:
// one send and one receive per node per slot, packets usable one slot
// after arrival. The schedule is generated slot by slot from a seeded
// deterministic random stream, so runs are reproducible and replayable.
//
// Generation costs O(N) per slot and allocates nothing once warm: each
// node's have-set is a bitset with a lowest-missing frontier, a pull scans
// target &^ puller a word at a time from that frontier (first set bit,
// last, or popcount-and-select, by strategy), and the slot's scratch
// buffers are reused. No slot is stored: Transmissions returns the reused
// buffer of the slot just generated, and a read of an earlier slot rewinds
// — re-seeds the stream, redraws the mesh and regenerates from slot 0 — as
// randreg's pull and push modes do. reference_test.go keeps the
// original map-and-sort generator and requires identical schedules.
//
// Entry points: New(n, d, degree, strategy, seed) builds the mesh as a
// core.Scheme; run it with slotsim.Options{Mode: core.Live,
// AllowIncomplete: true} since starvation is expected. Strategies:
// PullOldest, PullNewest and PullRandom.
package gossip
