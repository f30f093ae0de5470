package faults

import (
	"reflect"
	"testing"

	"streamcast/internal/core"
	"streamcast/internal/multitree"
	"streamcast/internal/obs"
	"streamcast/internal/slotsim"
)

// faultedOptions builds the engine options for a multitree scheme under the
// injector, with a horizon generous enough for the clean schedule.
func faultedOptions(m *multitree.MultiTree, d int, in *Injector) slotsim.Options {
	win := core.Packet(4 * d)
	return in.Apply(slotsim.Options{
		Slots:   core.Slot(int(win)) + core.Slot(m.Height()*d+4*d+2),
		Packets: win,
	})
}

// static adapts a fixed scheme and options to runReplayed's builder: a
// static topology can be run any number of times.
func static(s core.Scheme, opt slotsim.Options) func() (core.Scheme, slotsim.Options) {
	return func() (core.Scheme, slotsim.Options) { return s, opt }
}

// runReplayed executes the same faulted run twice — same injector instance,
// the scheme and options taken from build each time, since a live-churn
// source and the topology it mutates are single-shot — with full observation
// and asserts bit-identical outcomes: identical Result and arrival cells,
// identical event streams, identical fingerprints. An injector or churn
// source whose verdicts drifted between runs (hidden state, draw order) would
// fail here.
func runReplayed(t *testing.T, build func() (core.Scheme, slotsim.Options)) (*slotsim.Result, *obs.Metrics) {
	t.Helper()
	recA, recB := &obs.Recorder{}, &obs.Recorder{}
	metA, metB := obs.NewMetrics(), obs.NewMetrics()

	sA, optA := build()
	optA.Observer = obs.Combine(recA, metA)
	optA.Arrivals = new(slotsim.Arrivals)
	resA, errA := slotsim.Run(sA, optA)

	sB, optB := build()
	optB.Observer = obs.Combine(recB, metB)
	optB.Arrivals = new(slotsim.Arrivals)
	resB, errB := slotsim.Run(sB, optB)

	if (errA == nil) != (errB == nil) {
		t.Fatalf("replays disagree on acceptance: first %v, second %v", errA, errB)
	}
	if errA != nil {
		if errA.Error() != errB.Error() {
			t.Fatalf("replays rejected differently: %q vs %q", errA, errB)
		}
		return nil, metA
	}
	if !reflect.DeepEqual(resA, resB) || !reflect.DeepEqual(optA.Arrivals, optB.Arrivals) {
		t.Fatalf("results or arrival cells differ between replays")
	}
	if got, want := metB.Fingerprint(), metA.Fingerprint(); got != want {
		t.Fatalf("fingerprints differ: replay %s, first run %s", got, want)
	}
	if !reflect.DeepEqual(recA.Events, recB.Events) {
		la, lb := len(recA.Events), len(recB.Events)
		for i := 0; i < la && i < lb; i++ {
			if recA.Events[i] != recB.Events[i] {
				t.Fatalf("event %d differs: first run %s, replay %s", i, recA.Events[i], recB.Events[i])
			}
		}
		t.Fatalf("event streams differ in length: %d vs %d", la, lb)
	}
	return resA, metA
}

// TestFaultedParity is the acceptance criterion: for a fixed seed, a
// faulted run replays to identical obs fingerprints (and event streams, and
// Results), across generated plans with every fault kind active.
func TestFaultedParity(t *testing.T) {
	const n, d = 40, 3
	m, err := multitree.New(n, d, multitree.Greedy)
	if err != nil {
		t.Fatal(err)
	}
	s := multitree.NewScheme(m, core.PreRecorded)
	for seed := int64(1); seed <= 12; seed++ {
		plan := RandomPlan(seed, GenOptions{
			Nodes: n, Slots: 50, MaxCrash: 2, MaxLoss: 3, MaxDelay: 2,
		})
		in, err := NewInjector(plan)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		runReplayed(t, static(s, faultedOptions(m, d, in)))
	}
}

// TestFaultedReplay: running the same plan twice gives the identical
// fingerprint; a different seed gives a different fault pattern.
func TestFaultedReplay(t *testing.T) {
	const n, d = 30, 3
	m, err := multitree.New(n, d, multitree.Greedy)
	if err != nil {
		t.Fatal(err)
	}
	s := multitree.NewScheme(m, core.PreRecorded)
	run := func(seed int64) (string, int) {
		plan := &Plan{Seed: seed, Rules: []Rule{
			{Kind: Loss, From: Any, To: Any, Rate: 0.2, Begin: 0, End: Forever},
		}}
		in, err := NewInjector(plan)
		if err != nil {
			t.Fatal(err)
		}
		met := obs.NewMetrics()
		opt := faultedOptions(m, d, in)
		opt.Observer = met
		res, err := slotsim.Run(s, opt)
		if err != nil {
			t.Fatal(err)
		}
		missing := 0
		for _, v := range res.Missing {
			missing += v
		}
		return met.Fingerprint(), missing
	}
	fpA1, missA1 := run(7)
	fpA2, missA2 := run(7)
	if fpA1 != fpA2 || missA1 != missA2 {
		t.Errorf("same seed diverged: %s/%d vs %s/%d", fpA1, missA1, fpA2, missA2)
	}
	if missA1 == 0 {
		t.Error("20%% loss produced no missing packets — injection inert")
	}
	fpB, _ := run(8)
	if fpB == fpA1 {
		t.Error("different seeds produced identical faulted schedules")
	}
}

// TestCrashSemantics: a crashed node stops contributing at its crash slot —
// everything it would send or receive afterwards is dropped, and its
// subtree degrades instead of aborting the run.
func TestCrashSemantics(t *testing.T) {
	const n, d = 25, 2
	m, err := multitree.New(n, d, multitree.Greedy)
	if err != nil {
		t.Fatal(err)
	}
	s := multitree.NewScheme(m, core.PreRecorded)
	// Crash an interior node of tree 0 (position 1 is its root child).
	victim := m.Trees[0][0]
	plan := &Plan{Seed: 1, Rules: []Rule{{Kind: Crash, Node: victim, Begin: 3, End: Forever}}}
	in, err := NewInjector(plan)
	if err != nil {
		t.Fatal(err)
	}
	met := obs.NewMetrics()
	opt := faultedOptions(m, d, in)
	opt.Observer = met
	opt.Arrivals = new(slotsim.Arrivals)
	res, err := slotsim.Run(s, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Missing[victim] == 0 {
		t.Error("crashed node missed nothing")
	}
	// The victim received nothing from slot 3 on.
	for p, a := range opt.Arrivals.Row(victim) {
		if a >= 3 {
			t.Errorf("crashed node still received packet %d at slot %d", p, a)
		}
	}
	if met.Node(victim).Drops == 0 {
		t.Error("no drops recorded for the crashed sender")
	}
	// Some other node must keep a complete stream (the source's other
	// subtrees are unaffected).
	complete := 0
	for id := 1; id <= n; id++ {
		if core.NodeID(id) != victim && res.Missing[id] == 0 {
			complete++
		}
	}
	if complete == 0 {
		t.Error("one crash starved every receiver")
	}
}

// TestDelaySemantics: a deterministic +k delay on one link shifts exactly
// that receiver's arrivals and inflates its start delay.
func TestDelaySemantics(t *testing.T) {
	const n, d = 12, 2
	m, err := multitree.New(n, d, multitree.Greedy)
	if err != nil {
		t.Fatal(err)
	}
	s := multitree.NewScheme(m, core.PreRecorded)
	clean, err := slotsim.Run(s, slotsim.Options{Slots: 60, Packets: core.Packet(3 * d)})
	if err != nil {
		t.Fatal(err)
	}
	leaf := m.Trees[0][m.NP-1] // a tail (all-leaf) member: delays nobody downstream
	plan := &Plan{Seed: 1, Rules: []Rule{
		{Kind: Delay, From: Any, To: leaf, Rate: 1, Extra: 4, Begin: 0, End: Forever},
	}}
	in, err := NewInjector(plan)
	if err != nil {
		t.Fatal(err)
	}
	opt := in.Apply(slotsim.Options{Slots: 60, Packets: core.Packet(3 * d)})
	faulted, err := slotsim.Run(s, opt)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := faulted.StartDelay[leaf], clean.StartDelay[leaf]+4; got != want {
		t.Errorf("delayed leaf start %d, want %d", got, want)
	}
	for id := 1; id <= n; id++ {
		if core.NodeID(id) == leaf {
			continue
		}
		if faulted.StartDelay[id] != clean.StartDelay[id] {
			t.Errorf("node %d start changed %d -> %d under a delay scoped to node %d",
				id, clean.StartDelay[id], faulted.StartDelay[id], leaf)
		}
	}
}

// TestInjectorRejectsBadPlan: NewInjector refuses invalid plans.
func TestInjectorRejectsBadPlan(t *testing.T) {
	if _, err := NewInjector(&Plan{Rules: []Rule{{Kind: Loss, Rate: 2, End: 1}}}); err == nil {
		t.Error("invalid plan accepted")
	}
}

// TestDescribeAndCrashedNodes covers the reporting helpers.
func TestDescribeAndCrashedNodes(t *testing.T) {
	p := &Plan{Seed: 5, Rules: []Rule{
		{Kind: Crash, Node: 3, Begin: 1, End: Forever},
		{Kind: Crash, Node: 3, Begin: 9, End: Forever},
		{Kind: Crash, Node: 7, Begin: 2, End: Forever},
		{Kind: Loss, From: Any, To: Any, Rate: 0.5, End: Forever},
	}}
	in, err := NewInjector(p)
	if err != nil {
		t.Fatal(err)
	}
	if got := in.CrashedNodes(); !reflect.DeepEqual(got, []core.NodeID{3, 7}) {
		t.Errorf("CrashedNodes = %v", got)
	}
	if got := in.Describe(); got != "seed=5 crash=3 loss=1 delay=0 churn=0" {
		t.Errorf("Describe = %q", got)
	}
}
