package faults

import (
	"fmt"
	"slices"
	"strings"

	"streamcast/internal/core"
	"streamcast/internal/slotsim"
)

// Live churn: membership change as a mid-run workload. LiveChurn implements
// slotsim.ChurnSource — the engines consult it at every slot barrier and it
// applies join/leave ops to the run's core.DynamicScheme, checking the
// appendix d²+d swap bound on every single op as the run streams. This is the
// only way a run's membership changes: a join or leave happens at a slot
// barrier or not at all.
//
// Ops come from one of four deterministic sources:
//
//   - plan:    the join/leave events of a fault plan, fired at their slots.
//   - poisson: memoryless join/leave arrivals at a sustained rate. The
//     per-slot op count is a binomial thinning of the rate (4 seeded coins
//     of probability rate/4), so every draw is a pure hash of (seed, slot)
//     — no float transcendentals, no sequential generator state.
//   - flash:   a flash crowd. Joins arrive at the full rate through the
//     first half of the active window, then the crowd drains: leaves at the
//     full rate through the second half.
//   - wave:    a diurnal wave. A triangle wave modulates the poisson rate
//     between 0 and Rate over a fixed period, joins and leaves equally
//     likely.
//
// All verdicts are pure hashes of (seed, coordinate space, slot, index), so
// every replay — stepping the source at identical slot boundaries — produces
// a bit-identical membership history.

// Live-churn generator kinds (Churn.Kind).
const (
	ChurnPlan    = "plan"
	ChurnPoisson = "poisson"
	ChurnFlash   = "flash"
	ChurnWave    = "wave"
)

// maxChurnRate caps generator rates: the binomial thinning splits each slot
// into 4 coins, so rates above 4 ops/slot would saturate.
const maxChurnRate = 4.0

// wavePeriod is the triangle period of the diurnal-wave generator when the
// active window is open-ended.
const wavePeriod = 64

// Churn is a churn directive: the op source and what drives it. A scenario
// holds one per `churn` line and LiveChurnConfig embeds one; Check is the one
// home of the rules a directive must meet on its own.
type Churn struct {
	// Kind selects the op source: ChurnPlan, ChurnPoisson, ChurnFlash or
	// ChurnWave.
	Kind string
	// Rate is the expected membership ops per slot for the generator kinds
	// (the peak rate for flash/wave); it must be 0 for ChurnPlan and in
	// (0, 4] otherwise.
	Rate float64
	// Seed drives every stochastic verdict (op counts, join/leave coins,
	// victim picks). For ChurnPlan a zero Seed inherits the plan's.
	Seed int64
	// Lazy selects the lazy repair policy of the churned topology; false is
	// eager.
	Lazy bool
	// Max is the join budget: generator joins beyond it are skipped, plan
	// joins beyond it abort the run. In a scenario 0 means the family
	// default (the plan's join count for ChurnPlan, n otherwise), which the
	// builder resolves before NewLiveChurn, where 0 means no joins.
	Max int
	// Begin and End bound the generator's active window in slots; End 0
	// means open-ended. ChurnFlash requires End > Begin (the crowd needs a
	// drain phase). ChurnPlan takes no window: its events carry their slots.
	Begin, End core.Slot
}

// Check reports the first rule the directive breaks.
func (c *Churn) Check() error {
	switch c.Kind {
	case ChurnPlan:
		if c.Rate != 0 {
			return fmt.Errorf("churn kind=plan takes its events from the fault plan; rate would be ignored")
		}
		if c.Begin != 0 || c.End != 0 {
			return fmt.Errorf("churn kind=plan events carry their own slots; the slots window would be ignored")
		}
	case ChurnPoisson, ChurnFlash, ChurnWave:
		if !(c.Rate > 0 && c.Rate <= maxChurnRate) { // negated form also rejects NaN
			return fmt.Errorf("churn kind=%s needs a rate in (0, %g], got %g", c.Kind, maxChurnRate, c.Rate)
		}
	default:
		return fmt.Errorf("unknown churn kind %q (want plan, poisson, flash or wave)", c.Kind)
	}
	// Every join may add an id, and a run holds at most core.MaxArrivalCells
	// (node, packet) cells, so a larger budget could never run.
	if c.Max < 0 || c.Max > core.MaxArrivalCells {
		return fmt.Errorf("churn max %d is not in [0, %d]", c.Max, core.MaxArrivalCells)
	}
	if c.Begin < 0 || c.End < 0 || (c.End > 0 && c.End < c.Begin) {
		return fmt.Errorf("churn window %d..%d is empty or negative", c.Begin, c.End)
	}
	if c.Kind == ChurnFlash && c.End <= c.Begin {
		return fmt.Errorf("churn kind=flash needs a bounded window (the crowd must drain); got slots=%d..%d", c.Begin, c.End)
	}
	return nil
}

// LiveChurnConfig parameterizes a LiveChurn source.
type LiveChurnConfig struct {
	// Churn is the directive, its Max already resolved.
	Churn
	// Plan supplies the events for ChurnPlan (it must contain at least one
	// join/leave event).
	Plan *Plan
	// Bound is the per-op swap ceiling (multitree.SwapBound(d) for the
	// multi-tree family); every applied op's swap count is checked against
	// it mid-run. Must be positive.
	Bound int
	// IDs is the scheme's id space when the run starts, and IDsPerJoin the
	// most ids one join can add to it (d for the multi-tree family, whose
	// join grows the trees by at most one level). Both must be positive.
	IDs, IDsPerJoin int
	// Slots is the run's horizon: the engine steps the source at the
	// boundaries entering slots 0..Slots−1, so no op fires past Slots−1.
	// Must be positive. With IDs and IDsPerJoin it fixes MaxNodes.
	Slots core.Slot
	// Floor is the minimum live membership; leaves that would go below it
	// are skipped (generators) or abort the run (plans). Values below 2 are
	// raised to 2.
	Floor int
}

// LiveOp records one applied membership op.
type LiveOp struct {
	Slot core.Slot
	// Leave is the op direction; Name is the resolved member (wildcards and
	// generator victim picks already applied).
	Leave bool
	Name  string
	Stats core.ChurnStats
}

// LiveChurn is the seeded mid-run churn source. It is single-shot: the op
// log and membership windows describe exactly one run, so reusing one
// across runs is an error. Build one per run.
type LiveChurn struct {
	cfg  LiveChurnConfig
	seed uint64

	plan    []ChurnEvent // kind plan: events sorted by slot
	planIdx int

	used    bool
	joins   int // join ops applied (budget accounting)
	leaves  int
	nameSeq int

	// log holds the applied ops in order; its length is the global op
	// counter, the victim-pick coordinate.
	log     []LiveOp
	members []slotsim.Membership
	// byNode holds, per node id up to MaxNodes, 1 + the index of the live
	// member's entry in members, or 0 for an id with no live member.
	byNode []int32
	// maxJoins and maxNodes are the joins the run can apply and the id
	// space they can reach, counted at construction.
	maxJoins, maxNodes int
	// pickList is the live membership in ds.Members() order (sorted by name),
	// seeded from it at slot 0 and kept in step by apply: victim picks index
	// into it, and rebuilding it per leave is an O(N log N) string sort.
	pickList []core.MemberInfo
}

var _ slotsim.ChurnSource = (*LiveChurn)(nil)

// NewLiveChurn validates the configuration and builds the source.
func NewLiveChurn(cfg LiveChurnConfig) (*LiveChurn, error) {
	if err := cfg.Check(); err != nil {
		return nil, fmt.Errorf("faults: %w", err)
	}
	if cfg.Kind == ChurnPlan && (cfg.Plan == nil || len(cfg.Plan.Churn) == 0) {
		return nil, fmt.Errorf("faults: churn kind=plan needs a plan with join/leave events")
	}
	if cfg.Bound <= 0 {
		return nil, fmt.Errorf("faults: live churn needs a positive per-op swap bound, got %d", cfg.Bound)
	}
	if cfg.IDs <= 0 || cfg.IDsPerJoin <= 0 {
		return nil, fmt.Errorf("faults: live churn needs a positive id space and growth per join, got %d and %d", cfg.IDs, cfg.IDsPerJoin)
	}
	if cfg.Slots <= 0 {
		return nil, fmt.Errorf("faults: live churn needs a positive horizon, got %d slots", cfg.Slots)
	}
	if cfg.Floor < 2 {
		cfg.Floor = 2
	}
	lc := &LiveChurn{cfg: cfg, seed: uint64(cfg.Seed)}
	if cfg.Kind == ChurnPlan {
		if cfg.Seed == 0 {
			lc.seed = uint64(cfg.Plan.Seed)
		}
		lc.plan = cfg.Plan.ChurnInOrder()
	}
	lc.maxJoins = lc.joinsWithin()
	lc.maxNodes = cfg.IDs + cfg.IDsPerJoin*lc.maxJoins
	lc.byNode = make([]int32, lc.maxNodes+1)
	return lc, nil
}

// joinsWithin counts the joins the run can apply: the plan's joins before
// the horizon, or the joins the generator draws over its window's slots
// before it, and at most the budget either way. Every draw is a pure hash
// of (seed, slot, index), so the count is the run's own, made in advance.
func (lc *LiveChurn) joinsWithin() int {
	joins := 0
	if lc.cfg.Kind == ChurnPlan {
		for _, e := range lc.plan {
			if !e.Leave && e.At < lc.cfg.Slots {
				joins++
			}
		}
		return min(joins, lc.cfg.Max)
	}
	last := lc.cfg.Slots - 1
	if lc.cfg.End > 0 {
		last = min(last, lc.cfg.End)
	}
	for t := lc.cfg.Begin; t <= last && joins < lc.cfg.Max; t++ {
		for i := range int64(lc.countAt(t)) {
			if !lc.directionAt(t, i) {
				joins++
			}
		}
	}
	return min(joins, lc.cfg.Max)
}

// MaxNodes implements slotsim.ChurnSource: the initial id space plus
// IDsPerJoin ids for every join the run can apply (joinsWithin).
func (lc *LiveChurn) MaxNodes() int { return lc.maxNodes }

// FirstChurnSlot returns the slot of the first applied op, or -1 if the run
// saw no churn.
func (lc *LiveChurn) FirstChurnSlot() core.Slot {
	if len(lc.log) == 0 {
		return -1
	}
	return lc.log[0].Slot
}

// Ops returns the applied-op log in order.
func (lc *LiveChurn) Ops() []LiveOp { return lc.log }

// Joins and Leaves return the applied op counts by direction.
func (lc *LiveChurn) Joins() int  { return lc.joins }
func (lc *LiveChurn) Leaves() int { return lc.leaves }

// Membership returns every member's lifetime window observed during the run
// (initial members, joiners, and leavers alike), in first-seen order.
func (lc *LiveChurn) Membership() []slotsim.Membership {
	out := make([]slotsim.Membership, len(lc.members))
	copy(out, lc.members)
	return out
}

// ChurnSummary aggregates a run's applied ops: total and worst per-op swap
// counts.
type ChurnSummary struct {
	Ops, TotalSwaps, MaxSwaps int
	// AvgSwaps is TotalSwaps/Ops, or 0 when no ops were applied.
	AvgSwaps float64
	// Bound is the per-op swap ceiling every op was checked against
	// (LiveChurnConfig.Bound: d²+d for the multi-tree family).
	Bound int
}

// Summary aggregates the applied-op log.
func (lc *LiveChurn) Summary() ChurnSummary {
	s := ChurnSummary{Ops: len(lc.log), Bound: lc.cfg.Bound}
	if len(lc.log) == 0 {
		return s
	}
	for _, op := range lc.log {
		s.TotalSwaps += op.Stats.Swaps
		if op.Stats.Swaps > s.MaxSwaps {
			s.MaxSwaps = op.Stats.Swaps
		}
	}
	s.AvgSwaps = float64(s.TotalSwaps) / float64(len(lc.log))
	return s
}

// track opens a membership window for a node id.
func (lc *LiveChurn) track(node core.NodeID, name string, join core.Slot) {
	if int(node) >= len(lc.byNode) {
		// Past the counted ceiling: the engine refuses the run at this
		// barrier, so the table need only not panic first.
		lc.byNode = append(lc.byNode, make([]int32, int(node)+1-len(lc.byNode))...)
	}
	lc.members = append(lc.members, slotsim.Membership{Node: node, Name: name, Join: join, Leave: -1})
	lc.byNode[node] = int32(len(lc.members))
}

// Step implements slotsim.ChurnSource: it resolves and applies the ops
// scheduled for the boundary entering slot t, one at a time so victim picks
// see the membership left by the previous op, checking the per-op swap
// bound as it goes.
func (lc *LiveChurn) Step(t core.Slot, ds core.DynamicScheme) ([]core.ChurnStats, error) {
	if t == 0 {
		if lc.used {
			return nil, fmt.Errorf("faults: LiveChurn is single-shot; build a fresh source per run")
		}
		lc.used = true
		lc.pickList = ds.Members()
		lc.members = make([]slotsim.Membership, 0, len(lc.pickList)+lc.maxJoins)
		for _, m := range lc.pickList {
			lc.track(m.Node, m.Name, 0)
		}
	}
	var applied []core.ChurnStats
	fail := func(err error) ([]core.ChurnStats, error) { return applied, err }

	// Plan events due at this barrier fire first, in plan order. The engine
	// steps every slot from 0, so due means scheduled for exactly t.
	for lc.planIdx < len(lc.plan) && lc.plan[lc.planIdx].At <= t {
		e := lc.plan[lc.planIdx]
		lc.planIdx++
		st, err := lc.apply(t, ds, e.Leave, e.Name, true)
		if err != nil {
			return fail(err)
		}
		applied = append(applied, st)
	}
	if lc.cfg.Kind != ChurnPlan && lc.activeAt(t) {
		n := lc.countAt(t)
		for i := int64(0); i < int64(n); i++ {
			leave := lc.directionAt(t, i)
			name := ""
			if !leave {
				if lc.joins >= lc.cfg.Max {
					continue // join budget exhausted
				}
				name = fmt.Sprintf("live-%d", lc.nameSeq)
				lc.nameSeq++
			} else if len(lc.pickList) <= lc.cfg.Floor {
				continue // at the membership floor
			}
			st, err := lc.apply(t, ds, leave, name, false)
			if err != nil {
				return fail(err)
			}
			applied = append(applied, st)
		}
	}
	return applied, nil
}

// activeAt reports whether the generator window covers slot t.
func (lc *LiveChurn) activeAt(t core.Slot) bool {
	if t < lc.cfg.Begin {
		return false
	}
	return lc.cfg.End <= 0 || t <= lc.cfg.End
}

// rateAt returns the generator's instantaneous rate at slot t.
func (lc *LiveChurn) rateAt(t core.Slot) float64 {
	switch lc.cfg.Kind {
	case ChurnWave:
		period := int64(wavePeriod)
		if lc.cfg.End > 0 {
			if w := int64(lc.cfg.End-lc.cfg.Begin+1) / 2; w >= 2 {
				period = w
			} else {
				period = 2
			}
		}
		x := int64(t-lc.cfg.Begin) % period
		half := period / 2
		var tri float64
		if x <= half {
			tri = float64(x) / float64(half)
		} else {
			tri = float64(period-x) / float64(period-half)
		}
		return lc.cfg.Rate * tri
	default:
		return lc.cfg.Rate
	}
}

// countAt draws the number of membership ops for slot t: a binomial
// thinning of the slot rate into 4 seeded coins.
func (lc *LiveChurn) countAt(t core.Slot) int {
	p := lc.rateAt(t) / 4
	n := 0
	for i := int64(0); i < 4; i++ {
		if uniform(lc.seed, spaceChurnCount, int64(t), i) < p {
			n++
		}
	}
	return n
}

// directionAt decides join vs leave for generated op i of slot t.
func (lc *LiveChurn) directionAt(t core.Slot, i int64) bool {
	if lc.cfg.Kind == ChurnFlash {
		// The crowd floods in through the first half of the window and
		// drains through the second.
		mid := lc.cfg.Begin + (lc.cfg.End-lc.cfg.Begin+1)/2
		return t >= mid
	}
	return uniform(lc.seed, spaceChurnKind, int64(t), i) >= 0.5
}

// apply resolves and applies one op. fromPlan ops are strict: a join beyond
// the budget or a leave at the floor aborts the run instead of being
// skipped. An error names the op by its index; the engine adds the slot.
func (lc *LiveChurn) apply(t core.Slot, ds core.DynamicScheme, leave bool, name string, fromPlan bool) (core.ChurnStats, error) {
	op := len(lc.log) // ops applied before this one
	if leave {
		if len(lc.pickList) <= lc.cfg.Floor {
			return core.ChurnStats{}, fmt.Errorf("faults: churn op %d (leave): membership is at the %d-member floor", op+1, lc.cfg.Floor)
		}
		if !fromPlan || name == AnyName {
			space := spaceChurnLeave
			if fromPlan {
				space = spaceChurnPick
			}
			name = lc.pickList[pick(lc.seed, len(lc.pickList), space, int64(op))].Name
		}
	} else if lc.joins >= lc.cfg.Max {
		return core.ChurnStats{}, fmt.Errorf("faults: churn op %d (join %q): join budget %d exhausted", op+1, name, lc.cfg.Max)
	}
	st, err := ds.Apply(t, core.TopologyOp{Leave: leave, Name: name})
	if err != nil {
		return core.ChurnStats{}, fmt.Errorf("faults: churn op %d: %w", op+1, err)
	}
	if st.Swaps > lc.cfg.Bound {
		return core.ChurnStats{}, fmt.Errorf("faults: churn op %d (member %s): %d swaps exceeds the per-op bound %d",
			op+1, name, st.Swaps, lc.cfg.Bound)
	}
	// Apply succeeded, so a leaver is in the list and a joiner is not.
	at, _ := slices.BinarySearchFunc(lc.pickList, name, func(m core.MemberInfo, name string) int {
		return strings.Compare(m.Name, name)
	})
	if leave {
		lc.pickList = slices.Delete(lc.pickList, at, at+1)
		lc.leaves++
		if i := lc.byNode[st.Node]; i > 0 {
			lc.members[i-1].Leave = t
			lc.byNode[st.Node] = 0
		}
	} else {
		lc.pickList = slices.Insert(lc.pickList, at, core.MemberInfo{Node: st.Node, Name: name})
		lc.joins++
		lc.track(st.Node, name, t)
	}
	lc.log = append(lc.log, LiveOp{Slot: t, Leave: leave, Name: name, Stats: st})
	return st, nil
}
