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

// Live-churn generator kinds (LiveChurnConfig.Kind).
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

// LiveChurnConfig parameterizes a LiveChurn source.
type LiveChurnConfig struct {
	// Kind selects the op source: ChurnPlan, ChurnPoisson, ChurnFlash or
	// ChurnWave.
	Kind string
	// Seed drives every stochastic verdict (op counts, join/leave coins,
	// victim picks). For ChurnPlan a zero Seed inherits the plan's.
	Seed int64
	// Rate is the expected membership ops per slot for the generator kinds
	// (the peak rate for flash/wave); it must be 0 for ChurnPlan and in
	// (0, 4] otherwise.
	Rate float64
	// Begin and End bound the generator's active window in slots; End <= 0
	// means open-ended. ChurnFlash requires a bounded window (the crowd
	// needs a drain phase). Ignored for ChurnPlan (events carry slots).
	Begin, End core.Slot
	// MaxJoins is the join budget: generator joins beyond it are skipped,
	// plan joins beyond it abort the run. It sizes MaxNodes.
	MaxJoins int
	// Plan supplies the events for ChurnPlan (it must contain at least one
	// join/leave event).
	Plan *Plan
	// Bound is the per-op swap ceiling (multitree.SwapBound(d) for the
	// multi-tree family); every applied op's swap count is checked against
	// it mid-run. Must be positive.
	Bound int
	// MaxNodes is the engine's id-space ceiling (initial id space plus the
	// worst-case growth of the join budget). Must be positive.
	MaxNodes int
	// Floor is the minimum live membership; leaves that would go below it
	// are skipped (generators) or abort the run (plans). Values below 2 are
	// raised to 2.
	Floor int
	// CheckInvariants re-validates the scheme's full invariant set after
	// every op (expensive: O(N·d) per op; meant for tests and small runs).
	CheckInvariants bool
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

	used       bool
	live       int
	joins      int // join ops applied (budget accounting)
	leaves     int
	opIdx      int64 // global op counter: victim-pick coordinate
	nameSeq    int
	firstChurn core.Slot

	log     []LiveOp
	members []slotsim.Membership
	byNode  map[core.NodeID]int // live membership entry per node id
	// pickList is the live membership in ds.Members() order (sorted by name),
	// seeded from it at slot 0 and kept in step by apply: victim picks index
	// into it, and rebuilding it per leave is an O(N log N) string sort.
	pickList []core.MemberInfo
}

var _ slotsim.ChurnSource = (*LiveChurn)(nil)

// NewLiveChurn validates the configuration and builds the source.
func NewLiveChurn(cfg LiveChurnConfig) (*LiveChurn, error) {
	switch cfg.Kind {
	case ChurnPlan:
		if cfg.Plan == nil || len(cfg.Plan.Churn) == 0 {
			return nil, fmt.Errorf("faults: churn kind=plan needs a plan with join/leave events")
		}
		if cfg.Rate != 0 {
			return nil, fmt.Errorf("faults: churn kind=plan takes its events from the plan; rate must be 0")
		}
	case ChurnPoisson, ChurnFlash, ChurnWave:
		if !(cfg.Rate > 0 && cfg.Rate <= maxChurnRate) {
			return nil, fmt.Errorf("faults: churn kind=%s needs a rate in (0, %g], got %g", cfg.Kind, maxChurnRate, cfg.Rate)
		}
		if cfg.Kind == ChurnFlash && cfg.End <= cfg.Begin {
			return nil, fmt.Errorf("faults: churn kind=flash needs a bounded window (the crowd must drain); got slots=%d..%d", cfg.Begin, cfg.End)
		}
	default:
		return nil, fmt.Errorf("faults: unknown churn kind %q (want plan, poisson, flash or wave)", cfg.Kind)
	}
	if cfg.Bound <= 0 {
		return nil, fmt.Errorf("faults: live churn needs a positive per-op swap bound, got %d", cfg.Bound)
	}
	if cfg.MaxNodes <= 0 {
		return nil, fmt.Errorf("faults: live churn needs a positive MaxNodes ceiling, got %d", cfg.MaxNodes)
	}
	if cfg.Floor < 2 {
		cfg.Floor = 2
	}
	lc := &LiveChurn{
		cfg:        cfg,
		seed:       uint64(cfg.Seed),
		firstChurn: -1,
		byNode:     make(map[core.NodeID]int),
	}
	if cfg.Kind == ChurnPlan {
		if cfg.Seed == 0 {
			lc.seed = uint64(cfg.Plan.Seed)
		}
		lc.plan = cfg.Plan.ChurnInOrder()
	}
	return lc, nil
}

// MaxNodes implements slotsim.ChurnSource.
func (lc *LiveChurn) MaxNodes() int { return lc.cfg.MaxNodes }

// FirstChurnSlot returns the slot of the first applied op, or -1 if the run
// saw no churn.
func (lc *LiveChurn) FirstChurnSlot() core.Slot { return lc.firstChurn }

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
// counts and how many members the operations perturbed.
type ChurnSummary struct {
	Ops, TotalSwaps, MaxSwaps, Affected int
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
		s.Affected += op.Stats.Affected
		if op.Stats.Swaps > s.MaxSwaps {
			s.MaxSwaps = op.Stats.Swaps
		}
	}
	s.AvgSwaps = float64(s.TotalSwaps) / float64(len(lc.log))
	return s
}

// track opens a membership window for a node id.
func (lc *LiveChurn) track(node core.NodeID, name string, join core.Slot) {
	lc.byNode[node] = len(lc.members)
	lc.members = append(lc.members, slotsim.Membership{Node: node, Name: name, Join: join, Leave: -1})
	lc.live++
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
				if lc.joins >= lc.cfg.MaxJoins {
					continue // join budget exhausted
				}
				name = fmt.Sprintf("live-%d", lc.nameSeq)
				lc.nameSeq++
			} else if lc.live <= lc.cfg.Floor {
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
// skipped.
func (lc *LiveChurn) apply(t core.Slot, ds core.DynamicScheme, leave bool, name string, fromPlan bool) (core.ChurnStats, error) {
	if leave {
		if lc.live <= lc.cfg.Floor {
			return core.ChurnStats{}, fmt.Errorf("faults: churn op %d (leave at slot %d): membership is at the %d-member floor", lc.opIdx+1, t, lc.cfg.Floor)
		}
		if !fromPlan || name == AnyName {
			space := spaceChurnLeave
			if fromPlan {
				space = spaceChurnPick
			}
			name = lc.pickList[pick(lc.seed, len(lc.pickList), space, lc.opIdx)].Name
		}
	} else if lc.joins >= lc.cfg.MaxJoins {
		return core.ChurnStats{}, fmt.Errorf("faults: churn op %d (join %q at slot %d): join budget %d exhausted", lc.opIdx+1, name, t, lc.cfg.MaxJoins)
	}
	sts, err := ds.ApplyOps(t, []core.TopologyOp{{Leave: leave, Name: name}})
	if err != nil {
		return core.ChurnStats{}, fmt.Errorf("faults: churn op %d at slot %d: %w", lc.opIdx+1, t, err)
	}
	st := sts[0]
	if st.Swaps > lc.cfg.Bound {
		return core.ChurnStats{}, fmt.Errorf("faults: churn op %d at slot %d (member %s): %d swaps exceeds the per-op bound %d",
			lc.opIdx+1, t, name, st.Swaps, lc.cfg.Bound)
	}
	if lc.cfg.CheckInvariants {
		if v, ok := ds.(interface{ Validate() error }); ok {
			if err := v.Validate(); err != nil {
				return core.ChurnStats{}, fmt.Errorf("faults: churn op %d at slot %d: invariant broken: %w", lc.opIdx+1, t, err)
			}
		}
	}
	lc.opIdx++
	if lc.firstChurn < 0 {
		lc.firstChurn = t
	}
	// ApplyOps succeeded, so a leaver is in the list and a joiner is not.
	at, _ := slices.BinarySearchFunc(lc.pickList, name, func(m core.MemberInfo, name string) int {
		return strings.Compare(m.Name, name)
	})
	if leave {
		lc.pickList = slices.Delete(lc.pickList, at, at+1)
		lc.leaves++
		lc.live--
		if idx, ok := lc.byNode[st.Node]; ok {
			lc.members[idx].Leave = t
			delete(lc.byNode, st.Node)
		}
	} else {
		lc.pickList = slices.Insert(lc.pickList, at, core.MemberInfo{Node: st.Node, Name: name})
		lc.joins++
		lc.track(st.Node, name, t)
	}
	lc.log = append(lc.log, LiveOp{Slot: t, Leave: leave, Name: name, Stats: st})
	return st, nil
}
