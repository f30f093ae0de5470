package integration

import (
	"math/rand"
	"testing"
	"testing/quick"

	"streamcast/internal/analysis"
	"streamcast/internal/check"
	"streamcast/internal/core"
	"streamcast/internal/hypercube"
	"streamcast/internal/multitree"
	"streamcast/internal/slotsim"
	"streamcast/internal/spec"
)

// TestQuickMultitreeSchedule: arbitrary (N, d, construction, mode) within
// bounds always produce engine-clean schedules satisfying Theorem 2 (plus
// the bounded pipelining slack in live mode).
func TestQuickMultitreeSchedule(t *testing.T) {
	f := func(nRaw, dRaw, cRaw, mRaw uint8) bool {
		n := int(nRaw)%180 + 1
		d := int(dRaw)%5 + 2
		c := multitree.Structured
		if cRaw%2 == 1 {
			c = multitree.Greedy
		}
		modes := []core.StreamMode{core.PreRecorded, core.Live, core.LivePreBuffered}
		mode := modes[int(mRaw)%len(modes)]
		sc := spec.MultiTreeScenario(n, d, c, mode)
		sc.Packets = 3 * d
		run, err := spec.Build(sc)
		if err != nil {
			return false
		}
		// The static verifier must agree with the engine on every sampled
		// configuration: structural invariants, capacities, and bounds.
		rep, err := check.Static(run.Scheme, *run.CheckOpt)
		if err != nil {
			t.Logf("N=%d d=%d %s %s: static check: %v", n, d, c, mode, err)
			return false
		}
		if !rep.OK() {
			t.Logf("N=%d d=%d %s %s: %v", n, d, c, mode, rep.Err())
			return false
		}
		res, err := slotsim.Run(run.Scheme, run.Opt)
		if err != nil {
			t.Logf("N=%d d=%d %s %s: %v", n, d, c, mode, err)
			return false
		}
		bound := core.Slot(analysis.Theorem2Bound(n, d) + d) // +d covers live variants
		return res.WorstStartDelay() <= bound
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(8))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestQuickHypercubeSchedule: arbitrary (N, d) hypercube configurations are
// engine-clean with 2-packet buffers and chain-bounded worst delay.
func TestQuickHypercubeSchedule(t *testing.T) {
	f := func(nRaw uint16, dRaw uint8) bool {
		n := int(nRaw)%900 + 1
		d := int(dRaw)%4 + 1
		sc := spec.HypercubeScenario(n, d)
		sc.Packets = 8
		run, err := spec.Build(sc)
		if err != nil {
			return false
		}
		s := run.Scheme.(*hypercube.Scheme)
		rep, err := check.Static(s, *run.CheckOpt)
		if err != nil {
			t.Logf("N=%d d=%d: static check: %v", n, d, err)
			return false
		}
		if !rep.OK() {
			t.Logf("N=%d d=%d: %v", n, d, rep.Err())
			return false
		}
		res, err := slotsim.Run(s, run.Opt)
		if err != nil {
			t.Logf("N=%d d=%d: %v", n, d, err)
			return false
		}
		if res.WorstBuffer() > 2 {
			t.Logf("N=%d d=%d: buffer %d", n, d, res.WorstBuffer())
			return false
		}
		// Worst delay bounded by the longest per-group chain.
		var worst core.Slot
		for _, dims := range s.CubeDims() {
			var sum core.Slot
			for _, k := range dims {
				sum += core.Slot(k)
			}
			if sum > worst {
				worst = sum
			}
		}
		return res.WorstStartDelay() <= worst
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(9))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestQuickDynamicChurn: arbitrary churn scripts keep the multi-tree
// invariants and the streaming property.
func TestQuickDynamicChurn(t *testing.T) {
	f := func(seed int64, dRaw uint8, lazy bool) bool {
		d := int(dRaw)%4 + 2
		ls, err := multitree.NewLiveScheme(2*d+1, d, lazy, core.PreRecorded)
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 60; i++ {
			op := core.TopologyOp{Name: newName(i)}
			if members := ls.Members(); rng.Intn(2) != 0 && len(members) > 2 {
				op = core.TopologyOp{Leave: true, Name: members[rng.Intn(len(members))].Name}
			}
			if _, err := ls.Apply(core.Slot(i), op); err != nil {
				return false
			}
		}
		return ls.Validate() == nil
	}
	cfg := &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(10))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func newName(i int) string {
	return "q-" + string(rune('a'+i%26)) + string(rune('0'+(i/26)%10)) + string(rune('0'+i/260))
}
