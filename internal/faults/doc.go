// Package faults is the deterministic fault-injection subsystem (see
// FAULTS.md): seeded plans of node crashes, probabilistic packet loss,
// slot-delayed delivery, and membership churn, replayable bit for bit.
//
// A Plan is parsed from a small line-based text format (ParsePlan/Format
// round-trip exactly) and compiled into an Injector whose every verdict is
// a pure hash of (seed, rule, slot, from, to, packet) — never a stateful
// PRNG — so any two interpreters of a plan reach identical decisions in
// any evaluation order. For a fixed seed a faulted
// run therefore produces the same event stream, the same obs.Metrics
// fingerprint, and the same RunReport on every replay: chaos runs are
// evidence, not noise.
//
// Membership churn is live: LiveChurn applies a plan's join/leave events (or
// a seeded generator's) to the run's core.DynamicScheme at the slot barrier
// each is scheduled for, so recovery runs the appendix's eager/lazy
// restructuring algorithms while the stream flows, and every operation is
// hard-checked against the d²+d swap bound.
package faults
