package faults

import (
	"math/rand"
	"reflect"
	"sync"
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

// referenceDropTx is the drop verdict as the plan reads: every rule in file
// order, each loss coin drawn by uniform over the whole coordinate tuple.
// The compiled Injector must agree with it on every transmission.
func referenceDropTx(p *Plan, tx core.Transmission, t core.Slot) bool {
	seed := uint64(p.Seed)
	for i, r := range p.Rules {
		switch r.Kind {
		case Crash:
			if t >= r.Begin && (tx.From == r.Node || tx.To == r.Node) {
				return true
			}
		case Loss:
			if r.active(t) && r.matches(tx.From, tx.To) &&
				uniform(seed, spaceLoss, int64(i), int64(t), int64(tx.From), int64(tx.To), int64(tx.Packet)) < r.Rate {
				return true
			}
		}
	}
	return false
}

// referenceDelayTx is the delay verdict as the plan reads, the reference
// for the compiled Injector's DelayTx.
func referenceDelayTx(p *Plan, tx core.Transmission, t core.Slot) core.Slot {
	seed := uint64(p.Seed)
	var extra core.Slot
	for i, r := range p.Rules {
		if r.Kind != Delay || !r.active(t) || !r.matches(tx.From, tx.To) {
			continue
		}
		if r.Rate >= 1 ||
			uniform(seed, spaceDelay, int64(i), int64(t), int64(tx.From), int64(tx.To), int64(tx.Packet)) < r.Rate {
			extra += r.Extra
		}
	}
	return extra
}

// verdictSpan bounds the drawn slots and node ids: past 2^20, so the hash
// inputs use more than the low bytes.
const verdictSpan = 1 << 21

// randomVerdictPlan draws a valid plan whose crash, loss and delay rules are
// interleaved, so no kind's rule indices are contiguous. Links are the
// wildcard or one of the hot ids, so specific rules match often enough to
// matter; windows are random, open-ended (Forever) about a third of the time.
func randomVerdictPlan(rng *rand.Rand, hot []core.NodeID) *Plan {
	p := &Plan{Seed: rng.Int63() - rng.Int63()}
	link := func() core.NodeID {
		if rng.Intn(3) == 0 {
			return Any
		}
		return hot[rng.Intn(len(hot))]
	}
	for k := 1 + rng.Intn(8); k > 0; k-- {
		r := Rule{Kind: Kind(rng.Intn(3)), Begin: core.Slot(rng.Intn(verdictSpan))}
		switch r.Kind {
		case Crash:
			r.Node, r.End = hot[rng.Intn(len(hot))], Forever
		default:
			r.From, r.To = link(), link()
			r.Rate = 1 - rng.Float64() // (0, 1]
			if rng.Intn(4) == 0 {
				r.Rate = 1
			}
			r.End = Forever
			if rng.Intn(3) > 0 {
				r.End = r.Begin + core.Slot(rng.Intn(verdictSpan))
			}
			if r.Kind == Delay {
				r.Extra = core.Slot(1 + rng.Intn(5))
			}
		}
		p.Rules = append(p.Rules, r)
	}
	return p
}

// TestCompiledVerdictsMatchReference: the compiled Injector (rules split by
// kind, hash prefixes folded once) reaches the reference's drop and delay
// verdict on every transmission of random plans, and each compiled coin is
// uniform's value over the full coordinate tuple.
func TestCompiledVerdictsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for trial := 0; trial < 300; trial++ {
		hot := make([]core.NodeID, 1+rng.Intn(4))
		for i := range hot {
			hot[i] = core.NodeID(rng.Intn(verdictSpan))
		}
		p := randomVerdictPlan(rng, hot)
		in, err := NewInjector(p)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		id := func() core.NodeID {
			if rng.Intn(2) == 0 {
				return hot[rng.Intn(len(hot))]
			}
			return core.NodeID(rng.Intn(verdictSpan))
		}
		for k := 0; k < 2000; k++ {
			tx := core.Transmission{From: id(), To: id(), Packet: core.Packet(rng.Intn(verdictSpan))}
			slot := core.Slot(rng.Intn(verdictSpan))
			if rng.Intn(4) == 0 { // on or beside a window edge
				r := p.Rules[rng.Intn(len(p.Rules))]
				edge := r.Begin
				if rng.Intn(2) == 0 && r.End != Forever {
					edge = r.End
				}
				slot = max(edge+core.Slot(rng.Intn(3)-1), 0)
			}
			if got, want := in.DropTx(tx, slot), referenceDropTx(p, tx, slot); got != want {
				t.Fatalf("trial %d: DropTx(%s, %d) = %v, reference %v\nplan:\n%s", trial, tx, slot, got, want, p.Format())
			}
			if got, want := in.DelayTx(tx, slot), referenceDelayTx(p, tx, slot); got != want {
				t.Fatalf("trial %d: DelayTx(%s, %d) = %d, reference %d\nplan:\n%s", trial, tx, slot, got, want, p.Format())
			}
			loss, delay := 0, 0
			for i, r := range p.Rules {
				var c *coinRule
				space := spaceLoss
				switch r.Kind {
				case Loss:
					c, loss = &in.loss[loss], loss+1
				case Delay:
					c, delay, space = &in.delay[delay], delay+1, spaceDelay
				default:
					continue
				}
				want := uniform(uint64(p.Seed), space, int64(i), int64(slot), int64(tx.From), int64(tx.To), int64(tx.Packet))
				if got := c.coin(tx, slot); got != want {
					t.Fatalf("trial %d: rule %d coin for %s at %d = %v, uniform %v", trial, i, tx, slot, got, want)
				}
			}
		}
	}
}

// TestInjectorSharedAcrossGoroutines: an Injector is written only by
// NewInjector, so goroutines may ask one injector for verdicts at once (run
// under -race) and each still gets the reference's answer.
func TestInjectorSharedAcrossGoroutines(t *testing.T) {
	hot := []core.NodeID{3, 7, 1 << 20}
	p := randomVerdictPlan(rand.New(rand.NewSource(7)), hot)
	p.Rules = append(p.Rules,
		Rule{Kind: Loss, From: Any, To: Any, Rate: 0.3, End: Forever},
		Rule{Kind: Delay, From: Any, To: 7, Rate: 0.5, Extra: 2, End: Forever})
	in, err := NewInjector(p)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 5000; k++ {
				tx := core.Transmission{From: hot[k%len(hot)], To: hot[(k+g)%len(hot)], Packet: core.Packet(k)}
				slot := core.Slot(k * (g + 1))
				if in.DropTx(tx, slot) != referenceDropTx(p, tx, slot) || in.DelayTx(tx, slot) != referenceDelayTx(p, tx, slot) {
					t.Errorf("goroutine %d: verdict for %s at %d differs from the reference", g, tx, slot)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
