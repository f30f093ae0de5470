package faults

import (
	"testing"

	"streamcast/internal/baseline"
	"streamcast/internal/core"
	"streamcast/internal/hypercube"
	"streamcast/internal/multitree"
	"streamcast/internal/slotsim"
)

// TestFaultEdgeCases drives the degenerate corners of the model — N=1,
// d=1, crashes in the first and the very last slot, total loss — through
// the faults API, table-driven.
func TestFaultEdgeCases(t *testing.T) {
	mt := func(n, d int) core.Scheme {
		m, err := multitree.New(n, d, multitree.Greedy)
		if err != nil {
			t.Fatal(err)
		}
		return multitree.NewScheme(m, core.PreRecorded)
	}
	hc := func(n, d int) core.Scheme {
		s, err := hypercube.New(n, d)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	chain := func(n int) core.Scheme {
		c, err := baseline.NewChain(n)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}

	cases := []struct {
		name    string
		scheme  core.Scheme
		mode    core.StreamMode
		slots   core.Slot
		packets core.Packet
		plan    *Plan
		// wantMissing constrains the total missing-packet count: -1 means
		// "any", otherwise the exact total over all receivers.
		wantMissing int
	}{
		{
			name: "N=1 multitree, no faults", scheme: mt(1, 2),
			slots: 12, packets: 4, plan: &Plan{}, wantMissing: 0,
		},
		{
			name: "N=1 multitree, source link lossy", scheme: mt(1, 2),
			slots: 12, packets: 4,
			plan: &Plan{Seed: 3, Rules: []Rule{
				{Kind: Loss, From: 0, To: Any, Rate: 0.5, Begin: 0, End: Forever},
			}},
			wantMissing: -1,
		},
		{
			name:   "N=1 d=1 hypercube, crash the only receiver at slot 0",
			scheme: hc(1, 1), mode: core.Live,
			slots: 10, packets: 3,
			plan:        &Plan{Rules: []Rule{{Kind: Crash, Node: 1, Begin: 0, End: Forever}}},
			wantMissing: 3, // every packet of the window
		},
		{
			name:   "chain N=1, crash in the very last slot",
			scheme: chain(1),
			slots:  6, packets: 6,
			plan:        &Plan{Rules: []Rule{{Kind: Crash, Node: 1, Begin: 5, End: Forever}}},
			wantMissing: 1, // only the final slot's packet is lost
		},
		{
			name:   "chain N=3, mid-chain crash cuts the tail",
			scheme: chain(3),
			slots:  10, packets: 4,
			plan:        &Plan{Rules: []Rule{{Kind: Crash, Node: 2, Begin: 0, End: Forever}}},
			wantMissing: 8, // nodes 2 and 3 lose the whole window
		},
		{
			name:   "d=1 hypercube N=7, total blackout from slot 0",
			scheme: hc(7, 1), mode: core.Live,
			slots: 40, packets: 4,
			plan: &Plan{Seed: 9, Rules: []Rule{
				{Kind: Loss, From: Any, To: Any, Rate: 1, Begin: 0, End: Forever},
			}},
			wantMissing: 28, // nothing ever arrives anywhere
		},
		{
			name:   "delay on the last scheduled slot pushes past the horizon",
			scheme: chain(2),
			slots:  8, packets: 6,
			plan: &Plan{Rules: []Rule{
				{Kind: Delay, From: 0, To: 1, Rate: 1, Extra: 20, Begin: 5, End: Forever},
			}},
			wantMissing: -1, // late sends vanish beyond the horizon
		},
	}

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			in, err := NewInjector(c.plan)
			if err != nil {
				t.Fatal(err)
			}
			opt := in.Apply(slotsim.Options{Slots: c.slots, Packets: c.packets, Mode: c.mode})
			res, _ := runReplayed(t, static(c.scheme, opt))
			if res == nil {
				t.Fatal("run rejected")
			}
			missing := 0
			for _, v := range res.Missing {
				missing += v
			}
			if c.wantMissing >= 0 && missing != c.wantMissing {
				t.Errorf("missing = %d, want %d", missing, c.wantMissing)
			}
		})
	}
}

// TestLastSlotCrashIsInert: a crash scheduled exactly one slot after the
// last transmission changes nothing — boundary check for the crash window.
func TestLastSlotCrashIsInert(t *testing.T) {
	m, err := multitree.New(9, 2, multitree.Greedy)
	if err != nil {
		t.Fatal(err)
	}
	s := multitree.NewScheme(m, core.PreRecorded)
	clean, err := slotsim.Run(s, slotsim.Options{Slots: 40, Packets: 6})
	if err != nil {
		t.Fatal(err)
	}
	in, err := NewInjector(&Plan{Rules: []Rule{
		{Kind: Crash, Node: 1, Begin: clean.SlotsUsed, End: Forever},
	}})
	if err != nil {
		t.Fatal(err)
	}
	faulted, err := slotsim.Run(s, in.Apply(slotsim.Options{Slots: 40, Packets: 6}))
	if err != nil {
		t.Fatal(err)
	}
	for id := 1; id <= 9; id++ {
		if faulted.Missing[id] != 0 {
			t.Errorf("node %d missing %d packets from a post-run crash", id, faulted.Missing[id])
		}
		if faulted.StartDelay[id] != clean.StartDelay[id] {
			t.Errorf("node %d start delay changed %d -> %d", id, clean.StartDelay[id], faulted.StartDelay[id])
		}
	}
}
