// Package slotsim is the slot-synchronous network simulator that executes
// streaming schemes under the communication model of the paper (Section 1):
// in each time slot a receiver may transmit at most one packet and receive
// at most one packet, the source may transmit up to its capacity d, and an
// intra-cluster transmission occupies exactly one slot (inter-cluster
// transmissions may be configured to take Tc slots via Options.Latency).
//
// The engine is deliberately independent of the scheme implementations: it
// re-validates every constraint (send capacity, receive capacity, sender
// availability, duplicate suppression) on every slot, so a construction bug
// in a scheme surfaces as a simulation error rather than silently producing
// optimistic metrics. It is the measurement oracle behind every empirical
// claim this reproduction makes about the paper's theorems — playback
// delay (Theorems 1–4), buffer occupancy (Proposition 1, the h·d bound),
// and the delay/buffer tradeoff of Table 1.
//
// Internally the engine is struct-of-arrays (see PERFORMANCE.md): there are
// no per-node structs or per-node maps. Every per-node quantity — the
// packed arrival matrix, source-occupancy bitmap, epoch-stamped capacity
// counters, and playback cursors — lives in a flat array indexed by NodeID
// inside a reusable scratch arena, which is what lets one engine span
// N=10 and N=10^6 with a per-slot path that performs no allocations and no
// O(N) clears.
//
// Entry points:
//
//   - Run executes a core.Scheme, one slot at a time on one goroutine, and
//     returns a Result with per-node playback start delays (StartDelay, the
//     paper's startup delay: max_j arrival_j − j), peak buffer occupancy
//     under the Figure 5 playback convention and missing-packet counts. The
//     arrival times themselves — and the hiccup accounting read off them —
//     are kept only for a run that sets Options.Arrivals (Arrivals.At, Row
//     and Hiccups, over a compact int32 matrix). The model is lock-step, so
//     a slot is O(N) array traffic between two hard barriers;
//     PERFORMANCE.md records why sharding it across workers was measured
//     and removed. Options.Slots is an upper bound: a Result depends on
//     the window's arrivals alone, so a bare run
//     — no observer, drop hook, injector, latency function or churn source
//     — ends at the first slot boundary at which every receiver holds the
//     whole window, and any of those keeps the run going to the horizon
//     (PERFORMANCE.md §10).
//   - Runner owns the scratch arena and a small cache of compiled
//     schedules for callers that run many simulations back to back; Run
//     draws pooled Runners automatically.
//   - Options configures horizon (an upper bound), measurement window,
//     stream mode, capacities, link latency, failure injection (Drop,
//     SkipUnavailable, AllowIncomplete), the observability hook
//     (Observer) and whether the arrival cells outlive the run (Arrivals).
//   - BuildReport turns a finished run plus an obs.Metrics collector into
//     a machine-readable obs.RunReport (see OBSERVABILITY.md).
//
// Observability: set Options.Observer to receive per-slot callbacks
// (obs.Observer) — slot boundaries, every transmission, delivery, drop and
// violation, in a deterministic order. With a nil observer the hook sites
// reduce to a pointer check and the engine runs at full speed.
package slotsim
