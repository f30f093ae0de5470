package faults

import (
	"fmt"
	"math"

	"streamcast/internal/core"
	"streamcast/internal/slotsim"
)

// coordinate-space tags keeping the hash inputs of different decision
// families disjoint (a loss coin never collides with a delay coin).
const (
	spaceLoss int64 = iota + 1
	spaceDelay
	spaceChurnPick
	spaceChurnCount
	spaceChurnKind
	spaceChurnLeave
)

// Injector is the seeded, plan-driven fault source. It implements
// slotsim.Injector (per-transmission drop/delay verdicts for the slot
// engine). Every verdict is a pure function of the plan and the
// transmission coordinates, so a faulted run is bit-for-bit replayable.
type Injector struct {
	plan *Plan
	seed uint64
}

// NewInjector validates the plan and builds its injector. An explicit seed
// override (from a CLI -fault-seed flag, say) is applied by mutating
// Plan.Seed before this call.
func NewInjector(p *Plan) (*Injector, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Injector{plan: p, seed: uint64(p.Seed)}, nil
}

// Plan returns the validated plan the injector runs.
func (in *Injector) Plan() *Plan { return in.plan }

// DropTx implements slotsim.Injector: crash rules lose everything a dead
// node would send or receive from its crash slot on; loss rules flip a
// seeded coin per (rule, slot, from, to, packet).
func (in *Injector) DropTx(tx core.Transmission, t core.Slot) bool {
	for i, r := range in.plan.Rules {
		switch r.Kind {
		case Crash:
			if t >= r.Begin && (tx.From == r.Node || tx.To == r.Node) {
				return true
			}
		case Loss:
			if r.active(t) && r.matches(tx.From, tx.To) &&
				uniform(in.seed, spaceLoss, int64(i), int64(t), int64(tx.From), int64(tx.To), int64(tx.Packet)) < r.Rate {
				return true
			}
		}
	}
	return false
}

// DelayTx implements slotsim.Injector: matching delay rules contribute
// their Extra slots (summed when several rules hit the same transmission),
// each gated by its own seeded coin.
func (in *Injector) DelayTx(tx core.Transmission, t core.Slot) core.Slot {
	var extra core.Slot
	for i, r := range in.plan.Rules {
		if r.Kind != Delay || !r.active(t) || !r.matches(tx.From, tx.To) {
			continue
		}
		if r.Rate >= 1 ||
			uniform(in.seed, spaceDelay, int64(i), int64(t), int64(tx.From), int64(tx.To), int64(tx.Packet)) < r.Rate {
			extra += r.Extra
		}
	}
	return extra
}

// Apply wires the injector into engine options and relaxes the run for
// degraded operation: incomplete playback becomes a measurement
// (Result.Missing) instead of an error, and relays missing a packet skip
// the forward — the loss cascade of a real protocol — instead of
// triggering a "sender does not hold packet" violation.
//
// Plans with delay rules additionally lift the receive capacity (unless
// the caller already overrode it): a delayed packet lands beside the
// receiver's regularly scheduled arrival, and under the model's unit
// receive bandwidth every such collision would abort the run. Lifting the
// cap records the collision as buffer inflation instead — the quantity the
// fault experiments measure.
func (in *Injector) Apply(opt slotsim.Options) slotsim.Options {
	opt.Inject = in
	opt.AllowIncomplete = true
	opt.SkipUnavailable = true
	if in.plan.HasDelay() && opt.RecvCap == nil {
		opt.RecvCap = func(core.NodeID) int { return math.MaxInt32 }
	}
	return opt
}

// CrashedNodes returns the ids of nodes any crash rule ever fails, in rule
// order (duplicates removed).
func (in *Injector) CrashedNodes() []core.NodeID {
	seen := make(map[core.NodeID]bool)
	var out []core.NodeID
	for _, r := range in.plan.Rules {
		if r.Kind == Crash && !seen[r.Node] {
			seen[r.Node] = true
			out = append(out, r.Node)
		}
	}
	return out
}

// Describe summarizes the plan for CLI banners.
func (in *Injector) Describe() string {
	var crash, loss, delay int
	for _, r := range in.plan.Rules {
		switch r.Kind {
		case Crash:
			crash++
		case Loss:
			loss++
		case Delay:
			delay++
		}
	}
	return fmt.Sprintf("seed=%d crash=%d loss=%d delay=%d churn=%d",
		in.plan.Seed, crash, loss, delay, len(in.plan.Churn))
}
