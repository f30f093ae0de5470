package faults

import (
	"reflect"
	"strings"
	"testing"

	"streamcast/internal/core"
	"streamcast/internal/multitree"
	"streamcast/internal/slotsim"
)

// liveSource builds a fresh Dynamic+LiveScheme pair and a LiveChurn over it
// (the source is single-shot, so every run needs its own).
func liveSource(t *testing.T, n, d int, lazy bool, cfg LiveChurnConfig) (*multitree.LiveScheme, *LiveChurn) {
	t.Helper()
	dy, err := multitree.NewDynamic(n, d, lazy)
	if err != nil {
		t.Fatal(err)
	}
	ls := multitree.NewLiveScheme(dy, core.PreRecorded)
	if cfg.Bound == 0 {
		cfg.Bound = multitree.SwapBound(d)
	}
	if cfg.MaxNodes == 0 {
		cfg.MaxNodes = ls.NumReceivers() + cfg.MaxJoins*d
	}
	lc, err := NewLiveChurn(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ls, lc
}

// stepAll drives the source directly (no engine) over the horizon,
// returning the op log.
func stepAll(t *testing.T, ls *multitree.LiveScheme, lc *LiveChurn, slots core.Slot) []LiveOp {
	t.Helper()
	for s := core.Slot(0); s < slots; s++ {
		if _, err := lc.Step(s, ls); err != nil {
			t.Fatalf("slot %d: %v", s, err)
		}
	}
	return lc.Ops()
}

func TestLiveChurnConfigValidation(t *testing.T) {
	base := LiveChurnConfig{Bound: 6, MaxNodes: 20}
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
		}, "rate must be 0"},
		{"poisson without rate", func(c *LiveChurnConfig) { c.Kind = ChurnPoisson }, "needs a rate"},
		{"rate above cap", func(c *LiveChurnConfig) { c.Kind = ChurnPoisson; c.Rate = 5 }, "needs a rate"},
		{"flash unbounded", func(c *LiveChurnConfig) { c.Kind = ChurnFlash; c.Rate = 1 }, "bounded window"},
		{"zero bound", func(c *LiveChurnConfig) { c.Kind = ChurnPoisson; c.Rate = 1; c.Bound = 0 }, "swap bound"},
		{"zero ceiling", func(c *LiveChurnConfig) { c.Kind = ChurnPoisson; c.Rate = 1; c.MaxNodes = 0 }, "MaxNodes"},
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
		{Kind: ChurnPoisson, Seed: 7, Rate: 0.5, MaxJoins: 8},
		{Kind: ChurnFlash, Seed: 11, Rate: 2, Begin: 10, End: 40, MaxJoins: 12},
		{Kind: ChurnWave, Seed: 13, Rate: 1.5, MaxJoins: 10},
	}
	for _, cfg := range configs {
		run := func() ([]LiveOp, []slotsim.Membership, []string) {
			ls, lc := liveSource(t, 12, 3, false, cfg)
			ops := stepAll(t, ls, lc, 80)
			return ops, lc.Membership(), ls.Dynamic().Names()
		}
		opsA, memA, namesA := run()
		opsB, memB, namesB := run()
		if len(opsA) == 0 {
			t.Fatalf("kind=%s: generator produced no ops at rate %g over 80 slots; pick another seed", cfg.Kind, cfg.Rate)
		}
		if !reflect.DeepEqual(opsA, opsB) {
			t.Errorf("kind=%s: op logs differ across identical runs", cfg.Kind)
		}
		if !reflect.DeepEqual(memA, memB) {
			t.Errorf("kind=%s: membership windows differ across identical runs", cfg.Kind)
		}
		if !reflect.DeepEqual(namesA, namesB) {
			t.Errorf("kind=%s: final membership differs across identical runs", cfg.Kind)
		}
	}
}

// TestLiveChurnFlashDirection: the crowd joins through the first half of the
// window and drains through the second — no generated leave before the
// midpoint, no generated join after it.
func TestLiveChurnFlashDirection(t *testing.T) {
	cfg := LiveChurnConfig{Kind: ChurnFlash, Seed: 3, Rate: 2, Begin: 0, End: 30, MaxJoins: 20}
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
	// MaxJoins 0 and Floor at the full membership: every generated op is
	// skipped, so the log stays empty over a high-rate window.
	cfg := LiveChurnConfig{Kind: ChurnPoisson, Seed: 5, Rate: 3, MaxJoins: 0, Floor: 10, MaxNodes: 30, Bound: 6}
	ls, lc := liveSource(t, 10, 2, false, cfg)
	if ops := stepAll(t, ls, lc, 60); len(ops) != 0 {
		t.Fatalf("budget 0 + floor at full membership still applied %d ops", len(ops))
	}
	if lc.FirstChurnSlot() != -1 {
		t.Fatalf("FirstChurnSlot %d on an op-free run, want -1", lc.FirstChurnSlot())
	}

	// A real budget is respected exactly.
	cfg = LiveChurnConfig{Kind: ChurnPoisson, Seed: 5, Rate: 3, MaxJoins: 3}
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
// budget and a leave at the floor abort the run instead of being skipped.
func TestLiveChurnPlanStrict(t *testing.T) {
	plan := &Plan{Seed: 9, Churn: []ChurnEvent{{At: 2, Name: "a"}, {At: 3, Name: "b"}}}
	cfg := LiveChurnConfig{Kind: ChurnPlan, Plan: plan, MaxJoins: 1, Bound: 6, MaxNodes: 30}
	ls, lc := liveSource(t, 10, 2, false, cfg)
	var err error
	for s := core.Slot(0); s < 10 && err == nil; s++ {
		_, err = lc.Step(s, ls)
	}
	if err == nil || !strings.Contains(err.Error(), "join budget") {
		t.Fatalf("plan join beyond budget: got %v", err)
	}

	plan = &Plan{Seed: 9, Churn: []ChurnEvent{
		{At: 1, Leave: true, Name: AnyName},
		{At: 2, Leave: true, Name: AnyName},
	}}
	cfg = LiveChurnConfig{Kind: ChurnPlan, Plan: plan, Floor: 3, Bound: 6, MaxNodes: 10}
	ls, lc = liveSource(t, 4, 2, false, cfg)
	err = nil
	for s := core.Slot(0); s < 10 && err == nil; s++ {
		_, err = lc.Step(s, ls)
	}
	if err == nil || !strings.Contains(err.Error(), "floor") {
		t.Fatalf("plan leave at floor: got %v", err)
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
		cfg := LiveChurnConfig{Kind: ChurnPlan, Plan: plan, MaxJoins: 2, Bound: 6, MaxNodes: 20}
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
	cfg := LiveChurnConfig{Kind: ChurnPlan, Plan: plan, Bound: 1, MaxNodes: 30}
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
	cfg := LiveChurnConfig{Kind: ChurnPoisson, Seed: 2, Rate: 0.5, MaxJoins: 2}
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
	cfg := LiveChurnConfig{Kind: ChurnPlan, Plan: plan, MaxJoins: 1, Bound: 6, MaxNodes: 20}
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
		run := func() (*slotsim.Result, ChurnSummary) {
			cfg := LiveChurnConfig{Kind: ChurnPoisson, Seed: 17, Rate: 0.4, Begin: 5, MaxJoins: 6, CheckInvariants: true}
			ls, lc := liveSource(t, 13, 3, lazy, cfg)
			res, err := slotsim.Run(ls, slotsim.Options{
				Slots:           ls.SteadyState() + 60,
				Packets:         core.Packet(24),
				Mode:            core.PreRecorded,
				Churn:           lc,
				AllowIncomplete: true,
				SkipUnavailable: true,
				AllowDuplicates: true,
			})
			if err != nil {
				t.Fatalf("lazy=%v: %v", lazy, err)
			}
			return res, lc.Summary()
		}
		ref, refSum := run()
		if refSum.Ops == 0 {
			t.Fatalf("lazy=%v: generator applied no ops; the parity case is vacuous", lazy)
		}
		if refSum.MaxSwaps > refSum.Bound {
			t.Fatalf("lazy=%v: max swaps %d exceeded bound %d without aborting", lazy, refSum.MaxSwaps, refSum.Bound)
		}
		res, sum := run()
		if !reflect.DeepEqual(ref, res) {
			t.Errorf("lazy=%v: Result differs between replays", lazy)
		}
		if !reflect.DeepEqual(refSum, sum) {
			t.Errorf("lazy=%v: churn summary differs between replays: %+v vs %+v", lazy, sum, refSum)
		}
	}
}

// TestSummarizeEdgeCases pins the replay summary on degenerate inputs: no
// ops (all-zero aggregates, no NaN average) and a non-positive degree (zero
// bound instead of a bogus d²+d).
func TestSummarizeEdgeCases(t *testing.T) {
	s := Summarize(nil, 0)
	if s != (ChurnSummary{}) {
		t.Fatalf("Summarize(nil, 0) = %+v, want zero value", s)
	}
	s = Summarize(nil, 3)
	if s.Bound != multitree.SwapBound(3) || s.Ops != 0 || s.AvgSwaps != 0 {
		t.Fatalf("Summarize(nil, 3) = %+v", s)
	}
	s = Summarize([]ChurnOp{}, -2)
	if s.Bound != 0 {
		t.Fatalf("negative degree produced bound %d, want 0", s.Bound)
	}
	ops := []ChurnOp{
		{Stats: multitree.OpStats{Swaps: 2, Affected: 3}},
		{Stats: multitree.OpStats{Swaps: 5, Affected: 1}},
	}
	s = Summarize(ops, 2)
	if s.TotalSwaps != 7 || s.MaxSwaps != 5 || s.Affected != 4 || s.AvgSwaps != 3.5 {
		t.Fatalf("Summarize aggregates: %+v", s)
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

func (m membersChecked) ApplyOps(t core.Slot, ops []core.TopologyOp) ([]core.ChurnStats, error) {
	m.check("entering an op")
	return m.LiveScheme.ApplyOps(t, ops)
}

// TestLiveChurnPickListMatchesMembers: victims are picked by index into the
// name-sorted live membership, so the incrementally maintained list has to be
// that listing after every single op — joins, leaves, level grows and
// shrinks, under both repair policies.
func TestLiveChurnPickListMatchesMembers(t *testing.T) {
	for _, lazy := range []bool{false, true} {
		cfg := LiveChurnConfig{Kind: ChurnPoisson, Seed: 21, Rate: 2, MaxJoins: 40}
		ls, lc := liveSource(t, 12, 3, lazy, cfg)
		ds := membersChecked{LiveScheme: ls, t: t, lc: lc}
		grew, shrunk := false, false
		for s := core.Slot(0); s < 120; s++ {
			stats, err := lc.Step(s, ds)
			if err != nil {
				t.Fatalf("lazy=%v slot %d: %v", lazy, s, err)
			}
			ds.check("after a step")
			for _, st := range stats {
				grew, shrunk = grew || st.Grew, shrunk || st.Shrunk
			}
		}
		if lc.Joins() == 0 || lc.Leaves() == 0 || !grew || !shrunk {
			t.Fatalf("lazy=%v: %d joins, %d leaves, grew=%v shrunk=%v; pick a seed that exercises all four", lazy, lc.Joins(), lc.Leaves(), grew, shrunk)
		}
	}
}
