// Package lint is a self-contained static-analysis framework plus the
// repo-specific analyzers behind cmd/streamvet (see STATIC_ANALYSIS.md).
//
// The framework mirrors the golang.org/x/tools/go/analysis model — an
// Analyzer inspects one type-checked package through a Pass and reports
// Diagnostics — but is built entirely on the standard library so the
// repository carries no external dependencies. Packages under analysis are
// parsed from source and type-checked against compiled export data obtained
// from `go list -export` (the same artifacts the go tool itself builds), so
// a full-repository run costs one build, not one type-check per transitive
// dependency.
//
// The analyzers guard invariants that the simulation engine can only detect
// dynamically, if at all (STATIC_ANALYSIS.md lists, per analyzer, the bug
// class or untested invariant it covers):
//
//   - nodeterminism: no wall-clock reads or global (unseeded) math/rand in
//     internal packages, preserving bit-identical replays and resume.
//   - slottypes: no direct conversions that mix core.NodeID, core.Packet and
//     core.Slot (all int underneath); semantic crossings must go through an
//     explicit int(...) bridge.
//   - obsguard: every call of an obs.Observer interface method outside
//     internal/obs must sit under an explicit `!= nil` guard on the same
//     receiver, keeping the benchmarked nil-observer fast path intact.
//   - checkederr: no silently discarded error returns in non-test internal
//     code.
//   - hotalloc: no map allocation in the slotsim per-slot hot path.
//   - construction: schemes are built through the internal/spec registry.
//   - maporder: no map iteration on a path that reaches deterministic output.
//
// Findings can be suppressed with a `//lint:ignore <analyzer> <reason>`
// comment on the offending line or the line above it.
package lint
