// Package spec makes scenarios data: a serializable Scenario value with a
// line-diagnostic text format (SCENARIOS.md), and a scheme registry that
// is the single construction path for every scheme family.
//
// A Scenario names a registered family, its parameters, the stream mode,
// horizon, engine, fault plan, preflight, and observability outputs.
// Parse reads the text form with line-precise diagnostics and rejects
// anything a run would silently ignore — an undeclared parameter, a mode
// a family cannot run in, a -check on a family that is not statically
// checkable. Format renders the canonical form; Parse(Format(sc))
// reproduces sc exactly (FuzzScenario pins the round trip).
//
// Each family (multitree, hypercube, chain, singletree, cluster, gossip,
// mdc, randreg) self-registers in its family_*.go file: declared
// parameters with defaults, capability flags (statically checkable,
// periodic/compilable, best effort, live churn), and a builder that
// turns resolved parameters into a constructed scheme plus engine and
// check options. Build resolves a Scenario through the registry into a
// Run, which executes on the slotsim engine and preflights through
// internal/check. Adding a scheme family is one registration — the CLI,
// the experiment sweeps, the integration suites, and the benchmarks all
// enumerate the registry.
package spec
