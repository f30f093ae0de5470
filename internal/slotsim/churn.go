package slotsim

import (
	"fmt"

	"streamcast/internal/core"
)

// ChurnSource feeds a run's live membership changes. It is consulted once
// per slot at the boundary entering the slot — after the previous slot's
// deliveries completed and before the next validate — so a source whose
// decisions are pure functions of (seed, slot) yields bit-identical replays.
// internal/faults provides the plan- and generator-driven implementation.
type ChurnSource interface {
	// MaxNodes returns an upper bound on the id space the churned topology
	// can reach within the run's horizon: the initial ids plus the most that
	// the joins the source applies there can add (faults.LiveChurn counts
	// them before the run). The engine sizes its state once from this bound;
	// an op that exceeds it aborts the run, since the source undercounted.
	MaxNodes() int
	// Step applies the membership ops scheduled for the boundary entering
	// slot t to ds, returning the per-op stats (empty means the topology is
	// unchanged this slot). Implementations enforce their own per-op swap
	// bounds and return an error to abort the run; the engine prefixes it
	// with the slot.
	Step(t core.Slot, ds core.DynamicScheme) ([]core.ChurnStats, error)
}

// churnStep runs the ChurnSource at the boundary entering slot t and
// refreshes engine state for any epoch change: ids reassigned to joining
// members are wiped (arrival row slices, playback cursor, in-flight ring
// entries), and the id space is checked against the pre-sized ceiling.
func (e *engine) churnStep(t core.Slot) error {
	stats, err := e.opt.Churn.Step(t, e.dyn)
	if err != nil {
		return fmt.Errorf("slotsim: slot %d: churn: %w", t, err)
	}
	if len(stats) == 0 {
		return nil
	}
	for _, st := range stats {
		if !st.Leave && st.Node >= 1 && int(st.Node) <= e.n {
			e.resetNode(st.Node)
		}
	}
	return e.refreshTopology(t)
}

// refreshTopology revalidates the engine's pre-sized invariants after a
// topology epoch bump. The struct-of-arrays state is sized to the churn
// ceiling at run start, so growth within the ceiling is free; growth beyond
// it is a hard error rather than a silent remap. The capacity tables need no
// refresh: a DynamicScheme's SourceCapacity is fixed for the run.
func (e *engine) refreshTopology(t core.Slot) error {
	if nr := e.dyn.NumReceivers(); nr > e.n {
		return fmt.Errorf("slotsim: slot %d: churn grew the id space to %d nodes, past the ceiling of %d its ChurnSource declared: the source undercounts its joins over the run's horizon", t, nr, e.n)
	}
	return nil
}
