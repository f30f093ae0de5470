package faults

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"streamcast/internal/core"
	"streamcast/internal/multitree"
	"streamcast/internal/slotsim"
)

// testHorizon is the horizon liveSource gives a source that names none: past
// every slot these tests step or run.
const testHorizon = 1 << 10

// liveSource builds a fresh LiveScheme and a LiveChurn over it
// (the source is single-shot, so every run needs its own).
func liveSource(t *testing.T, n, d int, lazy bool, cfg LiveChurnConfig) (*multitree.LiveScheme, *LiveChurn) {
	t.Helper()
	ls, err := multitree.NewLiveScheme(n, d, lazy, core.PreRecorded)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Bound == 0 {
		cfg.Bound = multitree.SwapBound(d)
	}
	cfg.IDs, cfg.IDsPerJoin = ls.NumReceivers(), d
	if cfg.Slots == 0 {
		cfg.Slots = testHorizon
	}
	lc, err := NewLiveChurn(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ls, lc
}

// checkedSource is liveSource with the source wrapped in checkedChurn, so
// the family's full invariant set is re-validated after every single op.
func checkedSource(t *testing.T, n, d int, lazy bool, cfg LiveChurnConfig) (*multitree.LiveScheme, checkedChurn) {
	t.Helper()
	ls, lc := liveSource(t, n, d, lazy, cfg)
	return ls, checkedChurn{LiveChurn: lc, ls: ls}
}

// checkedChurn is a ChurnSource decorator: it hands the source a view of the
// scheme whose Apply re-validates the family's full invariant set after
// every op (O(N·d) per op), so a broken invariant aborts the run at the op
// that broke it.
type checkedChurn struct {
	*LiveChurn
	ls *multitree.LiveScheme
}

func (c checkedChurn) Step(t core.Slot, ds core.DynamicScheme) ([]core.ChurnStats, error) {
	return c.LiveChurn.Step(t, validatedScheme{ds, c.ls})
}

// validatedScheme is the view checkedChurn hands its source.
type validatedScheme struct {
	core.DynamicScheme
	ls *multitree.LiveScheme
}

func (v validatedScheme) Apply(t core.Slot, op core.TopologyOp) (core.ChurnStats, error) {
	st, err := v.DynamicScheme.Apply(t, op)
	if err == nil {
		if verr := v.ls.Validate(); verr != nil {
			err = fmt.Errorf("invariant broken: %w", verr)
		}
	}
	return st, err
}

// churnLog is a churn source whose applied ops can be listed.
type churnLog interface {
	slotsim.ChurnSource
	Ops() []LiveOp
}

// stepAll drives the source directly (no engine) over the horizon,
// returning the op log.
func stepAll(t *testing.T, ls *multitree.LiveScheme, lc churnLog, slots core.Slot) []LiveOp {
	t.Helper()
	for s := core.Slot(0); s < slots; s++ {
		if _, err := lc.Step(s, ls); err != nil {
			t.Fatalf("slot %d: %v", s, err)
		}
	}
	return lc.Ops()
}

// liveOptions completes the engine options of a live-churn run the way the
// registry does: the source wired in, a horizon of the window plus the live
// steady state plus the family slack unless one is set, and the allowances a
// degraded run needs (repair gaps cascade as losses; the engine itself
// tolerates a swap's re-delivery under any churn source).
func liveOptions(ls *multitree.LiveScheme, lc slotsim.ChurnSource, opt slotsim.Options) slotsim.Options {
	if opt.Slots == 0 {
		opt.Slots = core.Slot(int(opt.Packets)) + ls.SteadyState() + core.Slot(4*ls.SourceCapacity()+2)
	}
	opt.Churn = lc
	opt.Arrivals = new(slotsim.Arrivals) // as spec.Build asks for every live-churn run
	opt.AllowIncomplete, opt.SkipUnavailable = true, true
	return opt
}

func TestLiveChurnConfigValidation(t *testing.T) {
	base := LiveChurnConfig{Bound: 6, IDs: 20, IDsPerJoin: 2, Slots: 50}
	cases := []struct {
		name string
		mut  func(*LiveChurnConfig)
		want string
	}{
		{"unknown kind", func(c *LiveChurnConfig) { c.Kind = "burst" }, "unknown churn kind"},
		{"plan without events", func(c *LiveChurnConfig) { c.Kind = ChurnPlan; c.Plan = &Plan{} }, "join/leave events"},
		{"plan with rate", func(c *LiveChurnConfig) {
			c.Kind = ChurnPlan
			c.Plan = &Plan{Churn: []ChurnEvent{{At: 1, Name: "x"}}}
			c.Rate = 1
		}, "rate would be ignored"},
		{"poisson without rate", func(c *LiveChurnConfig) { c.Kind = ChurnPoisson }, "needs a rate"},
		{"rate above cap", func(c *LiveChurnConfig) { c.Kind = ChurnPoisson; c.Rate = 5 }, "needs a rate"},
		{"flash unbounded", func(c *LiveChurnConfig) { c.Kind = ChurnFlash; c.Rate = 1 }, "bounded window"},
		{"flash empty", func(c *LiveChurnConfig) { c.Kind = ChurnFlash; c.Rate = 1; c.Begin, c.End = 5, 5 }, "bounded window"},
		{"window reversed", func(c *LiveChurnConfig) { c.Kind = ChurnWave; c.Rate = 1; c.Begin, c.End = 9, 3 }, "is empty"},
		{"budget past the id space", func(c *LiveChurnConfig) { c.Kind = ChurnPoisson; c.Rate = 1; c.Max = 1 << 62 }, "churn max"},
		{"zero bound", func(c *LiveChurnConfig) { c.Kind = ChurnPoisson; c.Rate = 1; c.Bound = 0 }, "swap bound"},
		{"zero id space", func(c *LiveChurnConfig) { c.Kind = ChurnPoisson; c.Rate = 1; c.IDs = 0 }, "id space"},
		{"zero growth", func(c *LiveChurnConfig) { c.Kind = ChurnPoisson; c.Rate = 1; c.IDsPerJoin = 0 }, "growth per join"},
		{"zero horizon", func(c *LiveChurnConfig) { c.Kind = ChurnPoisson; c.Rate = 1; c.Slots = 0 }, "horizon"},
	}
	for _, tc := range cases {
		cfg := base
		tc.mut(&cfg)
		if _, err := NewLiveChurn(cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want %q", tc.name, err, tc.want)
		}
	}
}

// TestLiveChurnGeneratorDeterminism: the same seed and config over the same
// initial family produce identical op logs, membership windows, and final
// topology — every generator kind is a pure hash of (seed, slot).
func TestLiveChurnGeneratorDeterminism(t *testing.T) {
	configs := []LiveChurnConfig{
		{Churn: Churn{Kind: ChurnPoisson, Seed: 7, Rate: 0.5, Max: 8}},
		{Churn: Churn{Kind: ChurnFlash, Seed: 11, Rate: 2, Begin: 10, End: 40, Max: 12}},
		{Churn: Churn{Kind: ChurnWave, Seed: 13, Rate: 1.5, Max: 10}},
	}
	for _, cfg := range configs {
		run := func() ([]LiveOp, []slotsim.Membership, []core.MemberInfo) {
			ls, lc := liveSource(t, 12, 3, false, cfg)
			ops := stepAll(t, ls, lc, 80)
			return ops, lc.Membership(), ls.Members()
		}
		opsA, memA, finalA := run()
		opsB, memB, finalB := run()
		if len(opsA) == 0 {
			t.Fatalf("kind=%s: generator produced no ops at rate %g over 80 slots; pick another seed", cfg.Kind, cfg.Rate)
		}
		if !reflect.DeepEqual(opsA, opsB) {
			t.Errorf("kind=%s: op logs differ across identical runs", cfg.Kind)
		}
		if !reflect.DeepEqual(memA, memB) {
			t.Errorf("kind=%s: membership windows differ across identical runs", cfg.Kind)
		}
		if !reflect.DeepEqual(finalA, finalB) {
			t.Errorf("kind=%s: final membership differs across identical runs", cfg.Kind)
		}
	}
}

// TestLiveChurnFlashDirection: the crowd joins through the first half of the
// window and drains through the second — no generated leave before the
// midpoint, no generated join after it.
func TestLiveChurnFlashDirection(t *testing.T) {
	cfg := LiveChurnConfig{Churn: Churn{Kind: ChurnFlash, Seed: 3, Rate: 2, Begin: 0, End: 30, Max: 20}}
	ls, lc := liveSource(t, 10, 2, false, cfg)
	ops := stepAll(t, ls, lc, 40)
	if len(ops) == 0 {
		t.Fatal("flash generated no ops")
	}
	mid := core.Slot(0 + (30-0+1)/2)
	for _, op := range ops {
		if op.Slot < mid && op.Leave {
			t.Errorf("leave at slot %d, before the flash midpoint %d", op.Slot, mid)
		}
		if op.Slot >= mid && !op.Leave {
			t.Errorf("join at slot %d, after the flash midpoint %d", op.Slot, mid)
		}
		if op.Slot > 30 {
			t.Errorf("op at slot %d, outside the window ..30", op.Slot)
		}
	}
}

// TestLiveChurnFloorAndBudget: generator ops beyond the join budget or at
// the membership floor are skipped, not errors — the run continues and the
// counters never cross the limits.
func TestLiveChurnFloorAndBudget(t *testing.T) {
	// Max 0 and Floor at the full membership: every generated op is
	// skipped, so the log stays empty over a high-rate window.
	cfg := LiveChurnConfig{Churn: Churn{Kind: ChurnPoisson, Seed: 5, Rate: 3, Max: 0}, Floor: 10, Bound: 6}
	ls, lc := liveSource(t, 10, 2, false, cfg)
	if ops := stepAll(t, ls, lc, 60); len(ops) != 0 {
		t.Fatalf("budget 0 + floor at full membership still applied %d ops", len(ops))
	}
	if lc.FirstChurnSlot() != -1 {
		t.Fatalf("FirstChurnSlot %d on an op-free run, want -1", lc.FirstChurnSlot())
	}

	// A real budget is respected exactly.
	cfg = LiveChurnConfig{Churn: Churn{Kind: ChurnPoisson, Seed: 5, Rate: 3, Max: 3}}
	ls, lc = liveSource(t, 10, 2, false, cfg)
	stepAll(t, ls, lc, 120)
	if lc.Joins() > 3 {
		t.Fatalf("%d joins applied with budget 3", lc.Joins())
	}
	live := len(ls.Members())
	if live < 2 {
		t.Fatalf("membership fell to %d, below the floor", live)
	}
}

// TestLiveChurnPlanStrict: plan-driven ops are strict — a join beyond the
// budget, a leave at the floor and a leave of a member nobody knows abort the
// run instead of being skipped, and each diagnostic carries the op's 1-based
// index.
func TestLiveChurnPlanStrict(t *testing.T) {
	plan := &Plan{Seed: 9, Churn: []ChurnEvent{{At: 2, Name: "a"}, {At: 3, Name: "b"}}}
	cfg := LiveChurnConfig{Churn: Churn{Kind: ChurnPlan, Max: 1}, Plan: plan, Bound: 6}
	ls, lc := liveSource(t, 10, 2, false, cfg)
	var err error
	for s := core.Slot(0); s < 10 && err == nil; s++ {
		_, err = lc.Step(s, ls)
	}
	if err == nil || !strings.Contains(err.Error(), "churn op 2") || !strings.Contains(err.Error(), "join budget") {
		t.Fatalf("plan join beyond budget: got %v", err)
	}

	plan = &Plan{Seed: 9, Churn: []ChurnEvent{
		{At: 1, Leave: true, Name: AnyName},
		{At: 2, Leave: true, Name: AnyName},
	}}
	cfg = LiveChurnConfig{Churn: Churn{Kind: ChurnPlan}, Plan: plan, Floor: 3, Bound: 6}
	ls, lc = liveSource(t, 4, 2, false, cfg)
	err = nil
	for s := core.Slot(0); s < 10 && err == nil; s++ {
		_, err = lc.Step(s, ls)
	}
	if err == nil || !strings.Contains(err.Error(), "churn op 2") || !strings.Contains(err.Error(), "floor") {
		t.Fatalf("plan leave at floor: got %v", err)
	}

	plan = &Plan{Churn: []ChurnEvent{
		{At: 1, Name: "late-1"},
		{At: 2, Leave: true, Name: "ghost"},
	}}
	cfg = LiveChurnConfig{Churn: Churn{Kind: ChurnPlan, Max: 1}, Plan: plan, Bound: 6}
	ls, lc = liveSource(t, 7, 2, false, cfg)
	err = nil
	for s := core.Slot(0); s < 10 && err == nil; s++ {
		_, err = lc.Step(s, ls)
	}
	if err == nil || !strings.Contains(err.Error(), "churn op 2") || !strings.Contains(err.Error(), "ghost") {
		t.Fatalf("leave of an unknown member: got %v, want the op index and the name", err)
	}
}

// TestLiveChurnSwapBound: every generated plan, applied live through eager
// and lazy repair at several degrees, keeps every operation within d²+d and
// the family's full invariant set intact after every single op. A breach of
// either is a Step error, so the bound is enforced, not sampled.
func TestLiveChurnSwapBound(t *testing.T) {
	for _, d := range []int{2, 3, 4} {
		for _, lazy := range []bool{false, true} {
			ops := 0
			for seed := int64(0); seed < 15; seed++ {
				plan := RandomPlan(seed, GenOptions{Nodes: 20, Slots: 60, MaxChurn: 24})
				if len(plan.Churn) == 0 {
					continue
				}
				cfg := LiveChurnConfig{Churn: Churn{Kind: ChurnPlan, Max: len(plan.Churn)}, Plan: plan}
				ls, lc := checkedSource(t, 2*d+1, d, lazy, cfg)
				stepAll(t, ls, lc, 60)
				sum := lc.Summary()
				if sum.Ops != len(plan.Churn) {
					t.Fatalf("d=%d lazy=%v seed=%d: applied %d of %d plan events", d, lazy, seed, sum.Ops, len(plan.Churn))
				}
				if sum.MaxSwaps > multitree.SwapBound(d) {
					t.Fatalf("d=%d lazy=%v seed=%d: max swaps %d exceeds bound %d",
						d, lazy, seed, sum.MaxSwaps, multitree.SwapBound(d))
				}
				ops += sum.Ops
			}
			if ops == 0 {
				t.Fatalf("d=%d lazy=%v: no generated plan carried churn; the case is vacuous", d, lazy)
			}
		}
	}
}

// TestLiveChurnPlanWildcardDeterministic: wildcard leaves resolve through
// the seeded pick, so two replays depart the same members.
func TestLiveChurnPlanWildcardDeterministic(t *testing.T) {
	plan := &Plan{Seed: 21, Churn: []ChurnEvent{
		{At: 2, Leave: true, Name: AnyName},
		{At: 4, Name: "fresh"},
		{At: 6, Leave: true, Name: AnyName},
	}}
	run := func() []string {
		cfg := LiveChurnConfig{Churn: Churn{Kind: ChurnPlan, Max: 2}, Plan: plan, Bound: 6}
		ls, lc := liveSource(t, 10, 2, false, cfg)
		var out []string
		for _, op := range stepAll(t, ls, lc, 10) {
			out = append(out, op.Name)
		}
		return out
	}
	a, b := run(), run()
	if len(a) != 3 {
		t.Fatalf("applied %d ops, want 3", len(a))
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("wildcard resolution differs: %v vs %v", a, b)
	}
	if a[0] == AnyName || a[2] == AnyName {
		t.Fatalf("wildcards left unresolved in the log: %v", a)
	}
}

// TestLiveChurnBoundEnforced: an artificially low per-op bound trips on the
// first multi-swap op mid-run — the d²+d check is continuous, not a replay
// summary.
func TestLiveChurnBoundEnforced(t *testing.T) {
	// Deleting interior members of a d=3 family needs multiple swaps; with
	// Bound 0 forced to 1 via config (validation demands > 0), the first op
	// needing 2+ swaps aborts.
	plan := &Plan{Seed: 1, Churn: []ChurnEvent{
		{At: 1, Leave: true, Name: "node-1"},
		{At: 2, Leave: true, Name: "node-2"},
		{At: 3, Leave: true, Name: "node-3"},
		{At: 4, Leave: true, Name: "node-4"},
	}}
	cfg := LiveChurnConfig{Churn: Churn{Kind: ChurnPlan}, Plan: plan, Bound: 1}
	ls, lc := liveSource(t, 13, 3, false, cfg)
	var err error
	for s := core.Slot(0); s < 10 && err == nil; s++ {
		_, err = lc.Step(s, ls)
	}
	if err == nil || !strings.Contains(err.Error(), "exceeds the per-op bound") {
		t.Fatalf("low bound not enforced: got %v", err)
	}
}

// TestLiveChurnSingleShot: reuse across runs is rejected at the first slot.
func TestLiveChurnSingleShot(t *testing.T) {
	cfg := LiveChurnConfig{Churn: Churn{Kind: ChurnPoisson, Seed: 2, Rate: 0.5, Max: 2}}
	ls, lc := liveSource(t, 10, 2, false, cfg)
	stepAll(t, ls, lc, 5)
	if _, err := lc.Step(0, ls); err == nil || !strings.Contains(err.Error(), "single-shot") {
		t.Fatalf("reused source: got %v", err)
	}
}

// TestLiveChurnMembershipWindows: initial members open at slot 0, joiners at
// their join slot, leavers close at their leave slot, and the Summary
// aggregates match the log.
func TestLiveChurnMembershipWindows(t *testing.T) {
	plan := &Plan{Seed: 4, Churn: []ChurnEvent{
		{At: 3, Name: "late"},
		{At: 7, Leave: true, Name: "node-2"},
	}}
	cfg := LiveChurnConfig{Churn: Churn{Kind: ChurnPlan, Max: 1}, Plan: plan, Bound: 6}
	ls, lc := liveSource(t, 10, 2, false, cfg)
	stepAll(t, ls, lc, 10)
	var sawLate, sawLeft bool
	for _, m := range lc.Membership() {
		switch m.Name {
		case "late":
			sawLate = true
			if m.Join != 3 || m.Leave != -1 {
				t.Errorf("joiner window [%d,%d), want [3,-1)", m.Join, m.Leave)
			}
		case "node-2":
			sawLeft = true
			if m.Join != 0 || m.Leave != 7 {
				t.Errorf("leaver window [%d,%d), want [0,7)", m.Join, m.Leave)
			}
		default:
			if m.Join != 0 {
				t.Errorf("initial member %s joins at %d, want 0", m.Name, m.Join)
			}
		}
	}
	if !sawLate || !sawLeft {
		t.Fatal("membership windows missing the joiner or the leaver")
	}
	sum := lc.Summary()
	if sum.Ops != 2 || sum.Bound != 6 {
		t.Fatalf("summary %+v, want 2 ops at bound 6", sum)
	}
	if lc.FirstChurnSlot() != 3 {
		t.Fatalf("FirstChurnSlot %d, want 3", lc.FirstChurnSlot())
	}
}

// TestLiveChurnEngineParity runs a generator through the real engine: two
// replays from the same seed must be bit-identical, under eager and under
// lazy repair.
func TestLiveChurnEngineParity(t *testing.T) {
	for _, lazy := range []bool{false, true} {
		run := func() (*slotsim.Result, *slotsim.Arrivals, ChurnSummary) {
			cfg := LiveChurnConfig{Churn: Churn{Kind: ChurnPoisson, Seed: 17, Rate: 0.4, Begin: 5, Max: 6}}
			ls, lc := checkedSource(t, 13, 3, lazy, cfg)
			opt := liveOptions(ls, lc, slotsim.Options{Slots: ls.SteadyState() + 60, Packets: 24})
			res, err := slotsim.Run(ls, opt)
			if err != nil {
				t.Fatalf("lazy=%v: %v", lazy, err)
			}
			return res, opt.Arrivals, lc.Summary()
		}
		ref, refCells, refSum := run()
		if refSum.Ops == 0 {
			t.Fatalf("lazy=%v: generator applied no ops; the parity case is vacuous", lazy)
		}
		if refSum.MaxSwaps > refSum.Bound {
			t.Fatalf("lazy=%v: max swaps %d exceeded bound %d without aborting", lazy, refSum.MaxSwaps, refSum.Bound)
		}
		res, cells, sum := run()
		if !reflect.DeepEqual(ref, res) || !reflect.DeepEqual(refCells, cells) {
			t.Errorf("lazy=%v: Result or arrival cells differ between replays", lazy)
		}
		if !reflect.DeepEqual(refSum, sum) {
			t.Errorf("lazy=%v: churn summary differs between replays: %+v vs %+v", lazy, sum, refSum)
		}
	}
}

// TestSummarizeEdgeCases pins Summary on its degenerate input, a run that
// applied no op: all-zero aggregates and no NaN average beside the configured
// bound. (TestLiveChurnMembershipWindows checks the aggregates of a run that
// applied some.)
func TestSummarizeEdgeCases(t *testing.T) {
	cfg := LiveChurnConfig{Churn: Churn{Kind: ChurnPoisson, Seed: 5, Rate: 3, Max: 0}, Floor: 10}
	ls, lc := liveSource(t, 10, 2, false, cfg)
	stepAll(t, ls, lc, 20)
	if got, want := lc.Summary(), (ChurnSummary{Bound: multitree.SwapBound(2)}); got != want {
		t.Fatalf("Summary of an op-free run = %+v, want %+v", got, want)
	}
}

// membersChecked is the live scheme with one extra duty: before each op is
// applied — that is, right after the previous one settled — the source's
// maintained pick list must equal a fresh Members() listing.
type membersChecked struct {
	*multitree.LiveScheme
	t  *testing.T
	lc *LiveChurn
}

func (m membersChecked) check(when string) {
	m.t.Helper()
	if want := m.Members(); !reflect.DeepEqual(m.lc.pickList, want) {
		m.t.Fatalf("%s: pick list %v, Members() %v", when, m.lc.pickList, want)
	}
}

func (m membersChecked) Apply(t core.Slot, op core.TopologyOp) (core.ChurnStats, error) {
	m.check("entering an op")
	return m.LiveScheme.Apply(t, op)
}

// TestLiveChurnPickListMatchesMembers: victims are picked by index into the
// name-sorted live membership, so the incrementally maintained list has to be
// that listing after every single op — joins, leaves, level grows and
// shrinks, under both repair policies.
func TestLiveChurnPickListMatchesMembers(t *testing.T) {
	for _, lazy := range []bool{false, true} {
		cfg := LiveChurnConfig{Churn: Churn{Kind: ChurnPoisson, Seed: 21, Rate: 2, Max: 40}}
		ls, lc := liveSource(t, 12, 3, lazy, cfg)
		ds := membersChecked{LiveScheme: ls, t: t, lc: lc}
		// Ids are appended only by a level grow; the padding of the live
		// count falls only when the membership drops below a level.
		grew, shrunk := false, false
		ids, padded := ls.NumReceivers(), 0
		for s := core.Slot(0); s < 120; s++ {
			if _, err := lc.Step(s, ds); err != nil {
				t.Fatalf("lazy=%v slot %d: %v", lazy, s, err)
			}
			ds.check("after a step")
			p := multitree.Padded(len(lc.pickList), 3)
			grew, shrunk = grew || ls.NumReceivers() > ids, shrunk || p < padded
			ids, padded = ls.NumReceivers(), p
		}
		if lc.Joins() == 0 || lc.Leaves() == 0 || !grew || !shrunk {
			t.Fatalf("lazy=%v: %d joins, %d leaves, grew=%v shrunk=%v; pick a seed that exercises all four", lazy, lc.Joins(), lc.Leaves(), grew, shrunk)
		}
	}
}

// TestLiveChurnRecovers: the stream heals. Once a plan's last op has been
// applied — at the barrier entering slot T — the topology is fixed again, and
// every window packet numbered T+d or later, which the source first sends
// after T, reaches every member live at the end: the survivors of the initial
// family and the joiners alike, under both repair policies. Only packets in
// flight across a repair are ever lost.
func TestLiveChurnRecovers(t *testing.T) {
	for _, c := range []struct{ n, d int }{{41, 3}, {24, 2}, {30, 3}, {100, 4}, {57, 3}} {
		for _, lazy := range []bool{false, true} {
			m, err := multitree.New(c.n, c.d, multitree.Greedy)
			if err != nil {
				t.Fatal(err)
			}
			// Mid-stream, packets in flight in every tree: an interior
			// member leaves, then joins and seeded leaves interleave.
			at := core.Slot(m.Height()*c.d + 5)
			plan := &Plan{Seed: int64(c.n), Churn: []ChurnEvent{
				{At: at, Leave: true, Name: multitree.MemberName(m.Trees[0][0])},
				{At: at + 1, Name: "late-a"},
				{At: at + 3, Leave: true, Name: AnyName},
				{At: at + 3, Name: "late-b"},
				{At: at + 4, Name: "late-c"},
				{At: at + 7, Leave: true, Name: AnyName},
			}}
			last := at + 7
			cfg := LiveChurnConfig{Churn: Churn{Kind: ChurnPlan, Max: 3}, Plan: plan}
			ls, lc := checkedSource(t, c.n, c.d, lazy, cfg)
			packets := core.Packet(int(last) + 5*c.d)
			opt := liveOptions(ls, lc, slotsim.Options{Packets: packets})
			res, err := slotsim.Run(ls, opt)
			if err != nil {
				t.Fatalf("N=%d d=%d lazy=%v: %v", c.n, c.d, lazy, err)
			}
			if got := len(lc.Ops()); got != len(plan.Churn) {
				t.Fatalf("N=%d d=%d lazy=%v: %d of %d plan events applied", c.n, c.d, lazy, got, len(plan.Churn))
			}
			members := ls.Members()
			if len(members) != c.n { // three leaves, three joins
				t.Fatalf("N=%d d=%d lazy=%v: %d members live at the end, want %d", c.n, c.d, lazy, len(members), c.n)
			}
			lost := 0
			for _, mem := range members {
				lost += res.Missing[mem.Node]
				for j := core.Packet(int(last) + c.d); j < packets; j++ {
					if opt.Arrivals.At(mem.Node, j) < 0 {
						t.Errorf("N=%d d=%d lazy=%v: %s (node %d) never received packet %d, sent after the last op at slot %d",
							c.n, c.d, lazy, mem.Name, mem.Node, j, last)
					}
				}
			}
			if lost == 0 {
				t.Errorf("N=%d d=%d lazy=%v: no survivor missed anything; the repairs never touched the stream", c.n, c.d, lazy)
			}
		}
	}
}

// TestLeaveBlastRadius: how far a mid-stream departure reaches depends on
// where the leaver sat. An all-leaf member forwards to nobody, so its leave
// costs no swap and no survivor misses a playback deadline; an interior
// member's leave promotes replacements into its positions, and the members
// those swaps move, plus the subtrees below them, glitch for one transition
// window — some survivors, but a bounded number, and a hiccup volume far
// below the stream's. Deadlines are the undisturbed schedule's analytic
// start delays.
func TestLeaveBlastRadius(t *testing.T) {
	const n, d = 30, 3
	m, err := multitree.New(n, d, multitree.Greedy)
	if err != nil {
		t.Fatal(err)
	}
	base := multitree.NewScheme(m, core.PreRecorded)
	allLeaf := m.Trees[0][m.NP-1]
	if m.IsDummy(allLeaf) {
		t.Fatal("the tail of T_0 holds a dummy at this size; pick another")
	}
	packets := core.Packet(12 * d)
	run := func(leaver core.NodeID) (swaps, hit, total int) {
		plan := &Plan{Churn: []ChurnEvent{
			{At: core.Slot(m.Height()*d + 7), Leave: true, Name: multitree.MemberName(leaver)},
		}}
		ls, lc := liveSource(t, n, d, false, LiveChurnConfig{Churn: Churn{Kind: ChurnPlan}, Plan: plan})
		opt := liveOptions(ls, lc, slotsim.Options{Packets: packets})
		if _, err := slotsim.Run(ls, opt); err != nil {
			t.Fatal(err)
		}
		for _, mem := range ls.Members() {
			if h := opt.Arrivals.Hiccups(mem.Node, base.AnalyticStartDelay(mem.Node)); h > 0 {
				hit++
				total += h
			}
		}
		return lc.Summary().TotalSwaps, hit, total
	}

	if swaps, hit, _ := run(allLeaf); swaps != 0 || hit != 0 {
		t.Errorf("all-leaf leave: %d swaps, %d survivors with hiccups; want none of either", swaps, hit)
	}
	swaps, hit, total := run(m.Trees[0][0])
	if swaps == 0 || swaps > multitree.SwapBound(d) {
		t.Errorf("interior leave: %d swaps, want 1..%d", swaps, multitree.SwapBound(d))
	}
	if hit == 0 {
		t.Error("interior leave perturbed no survivor at all")
	}
	// The vacated root-child position heads a subtree of at most n/d members
	// of one tree, and the swaps move at most d²+d members more; what they
	// miss is a transition window, not the stream.
	if hit > n/d+multitree.SwapBound(d) || total > n*int(packets)/2 {
		t.Errorf("interior leave: %d survivors with %d hiccups — wider than one subtree plus the swapped members", hit, total)
	}
}
