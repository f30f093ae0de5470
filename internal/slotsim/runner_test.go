package slotsim_test

import (
	"reflect"
	"testing"

	"streamcast/internal/baseline"
	"streamcast/internal/cluster"
	"streamcast/internal/core"
	"streamcast/internal/hypercube"
	"streamcast/internal/multitree"
	"streamcast/internal/obs"
	"streamcast/internal/slotsim"
)

// hidePeriodic wraps a scheme so that it no longer satisfies
// core.PeriodicScheme: the Runner cannot compile it, forcing the uncompiled
// reference path.
type hidePeriodic struct {
	inner core.Scheme
}

func (h hidePeriodic) Name() string        { return h.inner.Name() }
func (h hidePeriodic) NumReceivers() int   { return h.inner.NumReceivers() }
func (h hidePeriodic) SourceCapacity() int { return h.inner.SourceCapacity() }
func (h hidePeriodic) Transmissions(t core.Slot) []core.Transmission {
	return h.inner.Transmissions(t)
}
func (h hidePeriodic) Neighbors() map[core.NodeID][]core.NodeID { return h.inner.Neighbors() }

// outcome is what a run leaves behind — its Result and the window's arrival
// cells — so that "identical Results" in these tests means cell for cell.
type outcome struct {
	Res   *slotsim.Result
	Cells *slotsim.Arrivals
}

// runKeeping executes one run on r with the cells asked for.
func runKeeping(r *slotsim.Runner, s core.Scheme, opt slotsim.Options) (outcome, error) {
	opt.Arrivals = new(slotsim.Arrivals)
	res, err := r.Run(s, opt)
	return outcome{res, opt.Arrivals}, err
}

// observedRun executes one run with full observation attached.
func observedRun(s core.Scheme, opt slotsim.Options) (outcome, *obs.Recorder, *obs.Metrics, error) {
	rec, met := &obs.Recorder{}, obs.NewMetrics()
	opt.Observer = obs.Combine(rec, met)
	out, err := runKeeping(slotsim.NewRunner(), s, opt)
	return out, rec, met, err
}

// assertCompiledParity runs the scheme compiled (the engine's default for a
// periodic scheme) and uncompiled (periodicity hidden) and requires
// byte-identical Results and arrival cells, observer event streams, and metric
// fingerprints.
// It fails the test if the scheme would not actually compile, so a parity
// case can never silently degrade to comparing the slow path with itself.
func assertCompiledParity(t *testing.T, name string, s core.Scheme, opt slotsim.Options) {
	t.Helper()
	if _, ok := s.(core.PeriodicScheme); !ok {
		t.Fatalf("%s: scheme is not periodic; parity case is vacuous", name)
	}
	if c := core.CompileForRun(s, opt.Slots); c == nil {
		t.Fatalf("%s: scheme does not compile at horizon %d; parity case is vacuous", name, opt.Slots)
	}
	resC, recC, metC, errC := observedRun(s, opt)
	resU, recU, metU, errU := observedRun(hidePeriodic{inner: s}, opt)
	if (errC == nil) != (errU == nil) {
		t.Fatalf("%s: acceptance differs: compiled %v, uncompiled %v", name, errC, errU)
	}
	if errC != nil {
		if errC.Error() != errU.Error() {
			t.Fatalf("%s: errors differ: %q vs %q", name, errC, errU)
		}
		return
	}
	if !reflect.DeepEqual(resC, resU) {
		t.Fatalf("%s: Results or arrival cells differ between compiled and uncompiled runs", name)
	}
	if got, want := metC.Fingerprint(), metU.Fingerprint(); got != want {
		t.Fatalf("%s: fingerprints differ: compiled %s, uncompiled %s", name, got, want)
	}
	assertSameEvents(t, name, "compiled", recC, "uncompiled", recU)
}

// assertSameEvents requires two recorded event streams to be identical,
// reporting the first differing event.
func assertSameEvents(t *testing.T, name, labelA string, a *obs.Recorder, labelB string, b *obs.Recorder) {
	t.Helper()
	if reflect.DeepEqual(a.Events, b.Events) {
		return
	}
	la, lb := len(a.Events), len(b.Events)
	for i := 0; i < la && i < lb; i++ {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("%s: event %d differs: %s %s, %s %s", name, i, labelA, a.Events[i], labelB, b.Events[i])
		}
	}
	t.Fatalf("%s: event streams differ in length: %s %d, %s %d", name, labelA, la, labelB, lb)
}

// multitreeCase builds a multitree scheme and a horizon spanning many
// schedule periods.
func multitreeCase(t *testing.T, n, d int, mode core.StreamMode) (core.Scheme, slotsim.Options) {
	t.Helper()
	m, err := multitree.New(n, d, multitree.Greedy)
	if err != nil {
		t.Fatal(err)
	}
	s := multitree.NewScheme(m, mode)
	win := core.Packet(4 * d)
	return s, slotsim.Options{
		Slots:   core.Slot(int(win)) + core.Slot(m.Height()*d+4*d+2),
		Packets: win,
		Mode:    mode,
	}
}

// TestCompiledParityMultitree covers the three stream modes; the Live cases
// exercise source-availability gating across many period boundaries (the
// horizon spans >4 periods of length d past the warmup).
func TestCompiledParityMultitree(t *testing.T) {
	for _, mode := range []core.StreamMode{core.PreRecorded, core.Live, core.LivePreBuffered} {
		s, opt := multitreeCase(t, 25, 3, mode)
		assertCompiledParity(t, "multitree/"+mode.String(), s, opt)
	}
}

func TestCompiledParityHypercube(t *testing.T) {
	for _, n := range []int{7, 11} { // single cube, and a chain [3 1 1]
		s, err := hypercube.New(n, 1)
		if err != nil {
			t.Fatal(err)
		}
		opt := slotsim.Options{Slots: 60, Packets: 8, Mode: core.Live}
		assertCompiledParity(t, "hypercube", s, opt)
	}
}

func TestCompiledParityBaselines(t *testing.T) {
	ch, err := baseline.NewChain(10)
	if err != nil {
		t.Fatal(err)
	}
	assertCompiledParity(t, "chain", ch,
		slotsim.Options{Slots: 30, Packets: 6, Mode: core.Live})

	st, err := baseline.NewSingleTree(10, 2)
	if err != nil {
		t.Fatal(err)
	}
	assertCompiledParity(t, "singletree", st,
		slotsim.Options{Slots: 30, Packets: 6, Mode: core.Live, SendCap: st.SendCap})
}

// TestCompiledParityCluster runs the multi-cluster scheme with Tc > 1: the
// backbone latency function keeps the engine off its fast path, so this case
// covers compiled schedules feeding the inflight routing map.
func TestCompiledParityCluster(t *testing.T) {
	s, err := cluster.New(cluster.Config{
		K: 3, D: 3, Tc: 2, ClusterSize: 8,
		Degree: 2, Intra: cluster.MultiTree, Construction: multitree.Greedy,
	})
	if err != nil {
		t.Fatal(err)
	}
	opt := s.Options(6, 30)
	assertCompiledParity(t, "cluster/Tc=2", s, opt)
}

// parityInjector is a deterministic fault injector: verdicts are pure
// functions of (tx, t), so compiled and uncompiled runs see identical
// faults.
type parityInjector struct{}

func (parityInjector) DropTx(tx core.Transmission, t core.Slot) bool {
	return (int(tx.From)+int(tx.To)+int(t))%11 == 0
}

func (parityInjector) DelayTx(tx core.Transmission, t core.Slot) core.Slot {
	if (int(tx.To)+int(t))%13 == 0 {
		return 2
	}
	return 0
}

// TestCompiledParityFaulted exercises the compiled path under structured
// fault injection (drops and delays force the slow routing path) with
// loss-cascade skipping enabled.
func TestCompiledParityFaulted(t *testing.T) {
	s, opt := multitreeCase(t, 25, 3, core.PreRecorded)
	opt.Inject = parityInjector{}
	opt.RecvCap = func(core.NodeID) int { return 2 } // headroom for delayed arrivals
	opt.AllowIncomplete = true
	opt.AllowDuplicates = true
	opt.SkipUnavailable = true
	assertCompiledParity(t, "multitree/faulted", s, opt)
}

// TestRunnerReuse runs different schemes back to back through one Runner:
// scratch and the compiled cache must never leak state across runs.
func TestRunnerReuse(t *testing.T) {
	r := slotsim.NewRunner()
	s1, opt1 := multitreeCase(t, 25, 3, core.PreRecorded)
	s2, opt2 := multitreeCase(t, 10, 2, core.Live)
	var first outcome
	for i := 0; i < 3; i++ {
		out1, err := runKeeping(r, s1, opt1)
		if err != nil {
			t.Fatal(err)
		}
		if first.Res == nil {
			first = out1
		} else if !reflect.DeepEqual(first, out1) {
			t.Fatalf("run %d: Result or cells drifted across Runner reuse", i)
		}
		if _, err := runKeeping(r, s2, opt2); err != nil {
			t.Fatal(err)
		}
	}
	// The first run's cells are its caller's: five later runs on the same
	// Runner, which compared equal above, must not have reached them.
	if first.Cells.At(1, 0) < 0 {
		t.Fatal("first run's cells were corrupted by later runs reusing scratch")
	}
}

// TestRunnerReuseAcrossSizes reuses one Runner across runs of very different
// node counts: growing then shrinking the node count must neither corrupt
// results (stale capacity tables, dirty arrival rows) nor cost allocations
// beyond each run's own fixed overhead once the scratch has grown to the
// larger size.
func TestRunnerReuseAcrossSizes(t *testing.T) {
	small, optS := multitreeCase(t, 10, 2, core.PreRecorded)
	big, optB := multitreeCase(t, 400, 4, core.PreRecorded)

	// Fresh-Runner references for both sizes.
	wantS, err := runKeeping(slotsim.NewRunner(), small, optS)
	if err != nil {
		t.Fatal(err)
	}
	wantB, err := runKeeping(slotsim.NewRunner(), big, optB)
	if err != nil {
		t.Fatal(err)
	}

	r := slotsim.NewRunner()
	for i := 0; i < 3; i++ {
		gotS, err := runKeeping(r, small, optS)
		if err != nil {
			t.Fatal(err)
		}
		gotB, err := runKeeping(r, big, optB)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(wantS, gotS) {
			t.Fatalf("round %d: small Result drifted after a large run shared the scratch", i)
		}
		if !reflect.DeepEqual(wantB, gotB) {
			t.Fatalf("round %d: large Result drifted after a small run shared the scratch", i)
		}
	}

	// Alloc differential: with the scratch warmed to the larger size,
	// alternating sizes must cost exactly what the two runs cost alone — a
	// per-run regrow would show up as extra allocations in the pair.
	soloS := testing.AllocsPerRun(5, func() {
		if _, err := r.Run(small, optS); err != nil {
			t.Fatal(err)
		}
	})
	soloB := testing.AllocsPerRun(5, func() {
		if _, err := r.Run(big, optB); err != nil {
			t.Fatal(err)
		}
	})
	pair := testing.AllocsPerRun(5, func() {
		if _, err := r.Run(small, optS); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Run(big, optB); err != nil {
			t.Fatal(err)
		}
	})
	if pair > soloS+soloB {
		t.Errorf("alternating node counts costs %.0f allocations, the runs alone %.0f+%.0f: scratch is re-grown per run",
			pair, soloS, soloB)
	}
}

// TestCompiledSchemeTooShortHorizon checks the compile gate: a horizon too
// short to amortize compilation still runs (uncompiled) and matches the
// reference.
func TestCompiledSchemeTooShortHorizon(t *testing.T) {
	ch, err := baseline.NewChain(20) // W=19, P=1: needs horizon >= 21
	if err != nil {
		t.Fatal(err)
	}
	opt := slotsim.Options{Slots: 20, Packets: 1, Mode: core.Live}
	if c := core.CompileForRun(ch, opt.Slots); c != nil {
		t.Fatal("gate failed: compiled although horizon cannot amortize")
	}
	res, err := runKeeping(slotsim.NewRunner(), ch, opt)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := runKeeping(slotsim.NewRunner(), hidePeriodic{inner: ch}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, ref) {
		t.Fatal("short-horizon run differs from reference")
	}
}

// TestPacketBoundCoversHorizon: the engine sizes its arrival matrix from
// CompiledScheme.PacketBound, so for every horizon the bound must exceed each
// packet the source scheme schedules inside it — whatever shift the snapshot
// was left at — and once the horizon covers the whole snapshot, stay within a
// period of the largest one.
func TestPacketBoundCoversHorizon(t *testing.T) {
	cube, err := hypercube.New(31, 1)
	if err != nil {
		t.Fatal(err)
	}
	chain, err := baseline.NewChain(10)
	if err != nil {
		t.Fatal(err)
	}
	schemes := []core.Scheme{cube, chain}
	for _, mode := range []core.StreamMode{core.PreRecorded, core.Live, core.LivePreBuffered} {
		s, _ := multitreeCase(t, 25, 3, mode)
		schemes = append(schemes, s)
	}
	for _, s := range schemes {
		c := core.CompileSchedule(s)
		if c == nil {
			t.Fatalf("%s does not compile", s.Name())
		}
		top := core.Packet(-1)
		for h := core.Slot(1); h <= c.SteadyState()+5*c.Period(); h++ {
			for _, x := range s.Transmissions(h - 1) {
				top = max(top, x.Packet)
			}
			c.Transmissions(3 * h) // leave some residue shifted far ahead
			bound := c.PacketBound(h)
			if bound <= top {
				t.Fatalf("%s: PacketBound(%d) = %d, but packet %d is scheduled before slot %d", s.Name(), h, bound, top, h)
			}
			if h >= c.SteadyState()+c.Period() && bound-top > core.Packet(int(c.Period()))+1 {
				t.Fatalf("%s: PacketBound(%d) = %d, largest scheduled packet %d", s.Name(), h, bound, top)
			}
		}
	}
}
