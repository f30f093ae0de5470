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
	// can ever reach (initial members plus the worst-case growth of the
	// join budget). The engine sizes its state once from this bound; an op
	// that would exceed it aborts the run.
	MaxNodes() int
	// Step applies the membership ops scheduled for the boundary entering
	// slot t to ds, returning the per-op stats (empty means the topology is
	// unchanged this slot). Implementations enforce their own per-op swap
	// bounds and return an error to abort the run.
	Step(t core.Slot, ds core.DynamicScheme) ([]core.ChurnStats, error)
}

// churnStep runs the ChurnSource at the boundary entering slot t and
// refreshes engine state for any epoch change: ids reassigned to joining
// members are wiped (arrival row slices, playback cursor, in-flight ring
// entries), and the capacity tables are revalidated against the new epoch.
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
// it is a hard error rather than a silent remap. The default capacity
// tables are keyed by (nodes, source capacity) in the scratch arena — a
// source-capacity change patches the live table and re-keys it so no later
// run reuses a stale entry.
func (e *engine) refreshTopology(t core.Slot) error {
	if nr := e.dyn.NumReceivers(); nr > e.n {
		return fmt.Errorf("slotsim: slot %d: churn grew the id space to %d nodes, beyond the pre-sized ceiling %d (raise ChurnSource.MaxNodes)", t, nr, e.n)
	}
	if sc := e.dyn.SourceCapacity(); e.sendTab != nil && int32(sc) != e.sendTab[0] {
		e.sendTab[0] = int32(sc)
		e.sc.tabSrcCap = int32(sc)
	}
	return nil
}
