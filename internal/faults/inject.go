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
//
// NewInjector compiles the plan once: the rules are split by kind, and each
// loss or delay coin keeps its rule index only as the folded hash prefix
// mix(seed, space, index), so a verdict finishes the chain over
// (slot, from, to, packet) — four splitmix64 steps, not seven — and reaches
// the same value uniform would. Nothing is written after NewInjector, so one
// Injector may serve any number of runs, and goroutines, at once.
type Injector struct {
	plan  *Plan
	crash []Rule
	loss  []coinRule
	delay []coinRule
}

// coinRule is a compiled loss or delay rule: the rule and the hash of
// (seed, space, rule index) its coins continue from.
type coinRule struct {
	Rule
	prefix uint64
}

// NewInjector validates the plan and builds its injector. An explicit seed
// override (from a scenario's `faults seed=`, say) is applied by mutating
// Plan.Seed before this call; the plan must not change afterwards.
func NewInjector(p *Plan) (*Injector, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	in := &Injector{plan: p}
	seed := uint64(p.Seed)
	for i, r := range p.Rules {
		switch r.Kind {
		case Crash:
			in.crash = append(in.crash, r)
		case Loss:
			in.loss = append(in.loss, coinRule{r, mix(seed, spaceLoss, int64(i))})
		case Delay:
			in.delay = append(in.delay, coinRule{r, mix(seed, spaceDelay, int64(i))})
		}
	}
	return in, nil
}

// Plan returns the validated plan the injector runs.
func (in *Injector) Plan() *Plan { return in.plan }

// coin finishes r's hash chain over the transmission coordinates and maps it
// to [0, 1): uniform(seed, space, index, t, from, to, packet), bit for bit.
func (r *coinRule) coin(tx core.Transmission, t core.Slot) float64 {
	h := splitmix64(r.prefix ^ uint64(t))
	h = splitmix64(h ^ uint64(tx.From))
	h = splitmix64(h ^ uint64(tx.To))
	return unit(splitmix64(h ^ uint64(tx.Packet)))
}

// DropTx implements slotsim.Injector: crash rules lose everything a dead
// node would send or receive from its crash slot on; loss rules flip a
// seeded coin per (rule, slot, from, to, packet).
func (in *Injector) DropTx(tx core.Transmission, t core.Slot) bool {
	for i := range in.crash {
		r := &in.crash[i]
		if t >= r.Begin && (tx.From == r.Node || tx.To == r.Node) {
			return true
		}
	}
	for i := range in.loss {
		r := &in.loss[i]
		if r.active(t) && r.matches(tx.From, tx.To) && r.coin(tx, t) < r.Rate {
			return true
		}
	}
	return false
}

// DelayTx implements slotsim.Injector: matching delay rules contribute
// their Extra slots (summed when several rules hit the same transmission),
// each gated by its own seeded coin.
func (in *Injector) DelayTx(tx core.Transmission, t core.Slot) core.Slot {
	var extra core.Slot
	for i := range in.delay {
		r := &in.delay[i]
		if !r.active(t) || !r.matches(tx.From, tx.To) {
			continue
		}
		if r.Rate >= 1 || r.coin(tx, t) < r.Rate {
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
//
// A hook the options already carry, such as a cluster's link latency, is
// kept and asked first (chain).
func (in *Injector) Apply(opt slotsim.Options) slotsim.Options {
	if opt.Inject != nil {
		opt.Inject = chain{opt.Inject, in}
	} else {
		opt.Inject = in
	}
	opt.AllowIncomplete = true
	opt.SkipUnavailable = true
	if len(in.delay) > 0 && opt.RecvCap == nil {
		opt.RecvCap = func(core.NodeID) int { return math.MaxInt32 }
	}
	return opt
}

// chain asks two in-flight hooks about each transmission, first before
// second: it is lost if either loses it, and their delays add.
type chain struct{ first, second slotsim.Injector }

func (c chain) DropTx(tx core.Transmission, t core.Slot) bool {
	return c.first.DropTx(tx, t) || c.second.DropTx(tx, t)
}

func (c chain) DelayTx(tx core.Transmission, t core.Slot) core.Slot {
	return c.first.DelayTx(tx, t) + c.second.DelayTx(tx, t)
}

// Describe summarizes the plan for CLI banners.
func (in *Injector) Describe() string {
	return fmt.Sprintf("seed=%d crash=%d loss=%d delay=%d churn=%d",
		in.plan.Seed, len(in.crash), len(in.loss), len(in.delay), len(in.plan.Churn))
}
