// Package lint is a small static-analysis framework plus the repo-specific
// analyzers that no behavioural test can replace (see STATIC_ANALYSIS.md).
// It runs inside `go test`: TestRepositoryIsClean applies every analyzer to
// every package of the module, and `make lint` runs this package alone.
//
// The framework mirrors the golang.org/x/tools/go/analysis model — an
// Analyzer inspects one type-checked package through a Pass and reports
// Diagnostics — but is built entirely on the standard library so the
// repository carries no external dependencies. Packages under analysis are
// parsed from source and type-checked against compiled export data obtained
// from `go list -export`, so a full-repository run costs one build, not one
// type-check per transitive dependency.
//
// Each analyzer survived a mutation audit: its bug class was seeded into the
// tree and the test suite passed without it. The seed that got through is
// the analyzer's fixture under testdata/src.
//
//   - nodeterminism: no wall-clock reads or global (unseeded) math/rand in
//     internal packages, preserving bit-identical replays.
//   - slottypes: no direct conversions that mix core.NodeID, core.Packet and
//     core.Slot (all int underneath); a crossing goes through int(...).
//   - checkederr: no silently discarded error returns in non-test internal
//     code; a deliberate discard is spelled `_ = f()`.
//   - maporder: no map range whose body writes deterministic output.
package lint
