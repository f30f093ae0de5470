package spec

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"streamcast/internal/core"
	"streamcast/internal/faults"
	"streamcast/internal/obs"
	"streamcast/internal/slotsim"
)

// TestChurnDirectiveRoundTrip: the churn directive parses into the scenario
// fields and survives the canonical Format/Parse round trip.
func TestChurnDirectiveRoundTrip(t *testing.T) {
	src := "scheme multitree\nparam d=3 n=30\nchurn kind=poisson rate=0.5 seed=11 max=20 policy=lazy slots=10..60\n"
	sc, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	want := Scenario{
		Scheme: "multitree", Params: map[string]string{"n": "30", "d": "3"},
		Churn: &faults.Churn{Kind: "poisson", Rate: 0.5, Seed: 11, Max: 20, Lazy: true, Begin: 10, End: 60},
	}
	if !reflect.DeepEqual(*sc, want) {
		t.Fatalf("parsed %+v\nwant %+v", *sc, want)
	}
	back, err := Parse(sc.Format())
	if err != nil {
		t.Fatalf("canonical form rejected: %v\n%s", err, sc.Format())
	}
	if !reflect.DeepEqual(back, sc) {
		t.Fatalf("round trip changed the scenario:\n got %+v\nwant %+v", back, sc)
	}

	// policy=eager is the canonical default: parsed to Lazy false and
	// omitted from the canonical form.
	sc2, err := Parse("scheme multitree\nchurn kind=wave rate=2 policy=eager slots=3..\n")
	if err != nil {
		t.Fatal(err)
	}
	if sc2.Churn.Lazy {
		t.Fatal("policy=eager stored as lazy")
	}
	if strings.Contains(sc2.Format(), "policy") {
		t.Fatalf("canonical form spells the default policy: %q", sc2.Format())
	}
	if !strings.Contains(sc2.Format(), "slots=3..") {
		t.Fatalf("open window lost: %q", sc2.Format())
	}
}

// TestChurnDirectiveDiagnostics: malformed churn directives and invalid
// churn scenarios are rejected by Parse with precise messages that name the
// offending directive's line. The last three rows passed Parse on an earlier
// version and failed only in Build, without a line.
func TestChurnDirectiveDiagnostics(t *testing.T) {
	cases := []struct {
		src, want string
		line      int
	}{
		{"scheme multitree\nchurn rate=1\n", "missing kind", 2},
		{"scheme multitree\nchurn kind=burst\n", "unknown churn kind", 2},
		{"scheme multitree\nchurn kind=poisson rate=zero\n", "is not a number", 2},
		{"scheme multitree\nchurn kind=poisson rate=-1\n", "needs a rate in (0, 4]", 2},
		{"scheme multitree\nchurn kind=poisson rate=Inf\n", "needs a rate in (0, 4]", 2},
		{"scheme multitree\nchurn kind=poisson rate=1 seed=0\n", "non-zero integer", 2},
		{"scheme multitree\nchurn kind=poisson rate=1 max=0\n", "positive integer", 2},
		{"scheme multitree\nchurn kind=poisson rate=1 policy=maybe\n", "not eager or lazy", 2},
		{"scheme multitree\nchurn kind=poisson rate=1 slots=7\n", "not lo..hi", 2},
		{"scheme multitree\nchurn kind=poisson rate=1 slots=9..3\n", "is empty", 2},
		{"scheme multitree\nchurn kind=poisson rate=1 burst=2\n", "unknown argument", 2},
		{"scheme multitree\nchurn kind=poisson rate=1\nchurn kind=wave rate=1\n", "duplicate churn", 3},
		{"scheme multitree\nchurn kind=poisson\n", "needs a rate", 2},
		{"scheme multitree\nchurn kind=flash rate=1\n", "bounded window", 2},
		{"scheme multitree\nchurn kind=plan rate=1\nfaults file=x.plan\n", "rate would be ignored", 2},
		{"scheme multitree\nchurn kind=plan slots=1..5\nfaults file=x.plan\n", "slots window would be ignored", 2},
		{"scheme hypercube\nchurn kind=poisson rate=1\n", "cannot run live churn", 2},
		{"scheme multitree\nparam construction=structured\nchurn kind=poisson rate=1\n", "cannot churn", 3},
		{"scheme multitree\nchurn kind=poisson rate=1\ncheck\n", "drop check", 2},
		{"scheme multitree\nparam n=20\nchurn kind=poisson rate=5\n", "needs a rate in (0, 4], got 5", 3},
		{"scheme multitree\nparam n=20\nchurn kind=flash rate=1 slots=5..5\n", "bounded window", 3},
		{"scheme multitree\nparam n=20\nchurn kind=poisson rate=1 max=4611686018427387904\n", "churn max 4611686018427387904 is not in", 3},
	}
	for _, tc := range cases {
		_, err := Parse(tc.src)
		if err == nil || !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), fmt.Sprintf("line %d: ", tc.line)) {
			t.Errorf("%q: got %v, want %q on line %d", tc.src, err, tc.want, tc.line)
		}
	}

	// A directive built as a value meets the same Check.
	sc := &Scenario{Scheme: "multitree", Churn: &faults.Churn{Rate: 1}}
	if err := sc.Validate(); err == nil || !strings.Contains(err.Error(), "unknown churn kind") {
		t.Errorf("rate without kind: got %v", err)
	}
}

// churnScenario builds a fresh live-churn scenario (live-churn runs are
// single-shot, so every execution needs its own Build). parallel adds the
// accepted-and-ignored `parallel workers=2` directive.
func churnScenario(t *testing.T, policy string, parallel bool) *Run {
	t.Helper()
	sc, err := Parse("scheme multitree\nparam d=3 n=20\npackets 18\nchurn kind=poisson rate=0.6 seed=31 max=8 slots=5..\n")
	if err != nil {
		t.Fatal(err)
	}
	sc.Churn.Lazy = policy == "lazy"
	if parallel {
		sc.Parallel, sc.Workers = true, 2
	}
	run, err := Build(sc)
	if err != nil {
		t.Fatal(err)
	}
	return run
}

// TestChurnScenarioParity is the spec-level acceptance case: a seeded
// scenario with mid-run joins and leaves is bit-identical — Results, the
// arrival cells every live-churn run keeps, observer event streams, metric
// fingerprints, op logs — with and without the `parallel` directive (which
// the single-threaded engine accepts and ignores), for both repair policies. The d²+d swap bound is enforced per op
// during the run (a breach would have aborted) and double-checked on the
// summary.
func TestChurnScenarioParity(t *testing.T) {
	for _, policy := range []string{"", "lazy"} {
		exec := func(parallel bool) (*slotsim.Result, *obs.Recorder, *obs.Metrics, *Run) {
			run := churnScenario(t, policy, parallel)
			if run.Live == nil || run.Opt.Churn == nil {
				t.Fatal("live-churn scenario built without a churn source")
			}
			if run.CheckOpt != nil {
				t.Fatal("live-churn run offers static preflight options")
			}
			rec, met := &obs.Recorder{}, obs.NewMetrics()
			res, err := run.Execute(obs.Combine(rec, met))
			if err != nil {
				t.Fatalf("policy=%q parallel=%v: %v", policy, parallel, err)
			}
			return res, rec, met, run
		}
		refRes, refRec, refMet, refRun := exec(false)
		refLive := refRun.Live
		sum := refLive.Summary()
		if sum.Ops == 0 {
			t.Fatalf("policy=%q: generator applied no ops; the acceptance case is vacuous", policy)
		}
		if refLive.Joins() == 0 || refLive.Leaves() == 0 {
			t.Fatalf("policy=%q: want both joins and leaves mid-run, got %d joins %d leaves",
				policy, refLive.Joins(), refLive.Leaves())
		}
		if sum.MaxSwaps > sum.Bound {
			t.Fatalf("policy=%q: max swaps %d exceeded the d²+d bound %d without aborting", policy, sum.MaxSwaps, sum.Bound)
		}
		res, rec, met, run := exec(true)
		if !reflect.DeepEqual(refRes, res) || !reflect.DeepEqual(refRun.Opt.Arrivals, run.Opt.Arrivals) {
			t.Errorf("policy=%q: Result or arrival cells differ under the parallel directive", policy)
		}
		if got, want := met.Fingerprint(), refMet.Fingerprint(); got != want {
			t.Errorf("policy=%q: fingerprint %s under the parallel directive, %s without", policy, got, want)
		}
		if !reflect.DeepEqual(refRec.Events, rec.Events) {
			t.Errorf("policy=%q: event stream differs under the parallel directive", policy)
		}
		if !reflect.DeepEqual(refLive.Ops(), run.Live.Ops()) {
			t.Errorf("policy=%q: churn op log differs under the parallel directive", policy)
		}
		// The SLO of the reference run is well-formed: every still-live
		// member measured, ratios within [0,1].
		slo := slotsim.PlaybackSLO(refRes, refRun.Opt.Arrivals, refLive.Membership(), 3, refLive.FirstChurnSlot())
		if slo.Nodes == 0 || slo.Expected == 0 {
			t.Fatalf("policy=%q: SLO measured nothing: %+v", policy, slo)
		}
		if slo.RebufferRatio < 0 || slo.RebufferRatio > 1 {
			t.Fatalf("policy=%q: rebuffer ratio %v out of range", policy, slo.RebufferRatio)
		}
	}
}

// TestChurnPlanScenario: kind=plan consumes the fault plan's churn events
// live — the events fire at their slots, wildcards resolved.
func TestChurnPlanScenario(t *testing.T) {
	plan := &faults.Plan{Seed: 9, Churn: []faults.ChurnEvent{
		{At: 6, Name: "late-a"},
		{At: 9, Leave: true, Name: faults.AnyName},
	}}
	sc, err := Parse("scheme multitree\nparam d=2 n=10\npackets 12\nchurn kind=plan\n")
	if err != nil {
		t.Fatal(err)
	}
	run, err := BuildWithPlan(sc, plan)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := run.Execute(nil); err != nil {
		t.Fatal(err)
	}
	ops := run.Live.Ops()
	if len(ops) != 2 || ops[0].Slot != 6 || ops[1].Slot != 9 || !ops[1].Leave {
		t.Fatalf("plan events misfired: %+v", ops)
	}
	if ops[1].Name == faults.AnyName {
		t.Fatalf("wildcard leave left unresolved: %+v", ops[1])
	}

	// A second Execute is rejected: the source consumed its op log.
	if _, err := run.Execute(nil); err == nil || !strings.Contains(err.Error(), "single-shot") {
		t.Fatalf("second Execute: got %v, want single-shot error", err)
	}

	// Generator kinds refuse a plan that carries its own churn events.
	sc2, err := Parse("scheme multitree\nparam d=2 n=10\nchurn kind=poisson rate=1\n")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildWithPlan(sc2, plan); err == nil || !strings.Contains(err.Error(), "kind=plan") {
		t.Fatalf("generator over churn-bearing plan: got %v", err)
	}

	// kind=plan without any plan at all fails at Build with a pointer to
	// the faults directive.
	sc3, err := Parse("scheme multitree\nchurn kind=plan\n")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(sc3); err == nil || !strings.Contains(err.Error(), "needs a fault plan") {
		t.Fatalf("plan kind without plan: got %v", err)
	}
}

// TestChurnPlanPastHorizon: a plan event scheduled at or past the run's
// horizon would never fire — the engine stops stepping the source at the
// last slot — so Build refuses it, naming the event, its slot and the
// horizon, instead of running one op short and saying nothing.
func TestChurnPlanPastHorizon(t *testing.T) {
	sc, err := Parse("scheme multitree\nparam d=2 n=10\npackets 12\nslots 30\nchurn kind=plan\n")
	if err != nil {
		t.Fatal(err)
	}
	plan := func(at int) *faults.Plan {
		return &faults.Plan{Churn: []faults.ChurnEvent{
			{At: 6, Name: "late-a"},
			{At: core.Slot(at), Leave: true, Name: faults.AnyName},
		}}
	}
	for _, at := range []int{30, 31, 1000} {
		_, err := BuildWithPlan(sc, plan(at))
		if err == nil {
			t.Fatalf("leave at slot %d of a 30-slot run accepted", at)
		}
		for _, want := range []string{"churn event 2", fmt.Sprintf("slot %d", at), "30 slots"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("leave at slot %d: %v lacks %q", at, err, want)
			}
		}
	}

	// The last slot of the horizon is still a barrier: the event fires.
	run, err := BuildWithPlan(sc, plan(29))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := run.Execute(nil); err != nil {
		t.Fatal(err)
	}
	if ops := run.Live.Ops(); len(ops) != 2 || ops[1].Slot != 29 {
		t.Fatalf("event at the last slot misfired: %+v", ops)
	}

	// The automatic horizon is checked the same way.
	auto, err := Parse("scheme multitree\nparam d=2 n=10\npackets 12\nchurn kind=plan\n")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildWithPlan(auto, plan(5000)); err == nil || !strings.Contains(err.Error(), "would never fire") {
		t.Fatalf("leave at slot 5000 under the automatic horizon: got %v", err)
	}
}

// TestChurnBudgetCeiling: a join budget its Check accepts, but whose growth
// (d fresh ids per join) could pass what a run can hold, is a Build error
// instead of an overflowed ceiling — although the run's horizon draws far
// fewer joins and its id-space ceiling follows those: the budget means the
// same whatever the horizon.
func TestChurnBudgetCeiling(t *testing.T) {
	sc, err := Parse("scheme multitree\nparam d=3 n=20\nchurn kind=poisson rate=1 max=1073741824\n")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(sc); err == nil || !strings.Contains(err.Error(), "id space a run can hold") {
		t.Fatalf("budget past the id space: got %v", err)
	}
}

// idWatch records the largest id space its scheme reaches at any slot
// barrier of a run.
type idWatch struct {
	slotsim.ChurnSource
	peak int
}

func (w *idWatch) Step(t core.Slot, ds core.DynamicScheme) ([]core.ChurnStats, error) {
	stats, err := w.ChurnSource.Step(t, ds)
	w.peak = max(w.peak, ds.NumReceivers())
	return stats, err
}

// ceilingRun builds a live-churn run, executes it to its horizon under an
// idWatch, and returns the run, its initial id space and the watch.
func ceilingRun(t *testing.T, text string, plan *faults.Plan) (*Run, int, *idWatch) {
	t.Helper()
	sc, err := Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	run, err := BuildWithPlan(sc, plan)
	if err != nil {
		t.Fatalf("%v\n%s", err, text)
	}
	initial := run.Scheme.NumReceivers()
	w := &idWatch{ChurnSource: run.Opt.Churn}
	run.Opt.Churn = w
	if _, err := run.Execute(nil); err != nil {
		t.Fatalf("%v\n%s", err, text)
	}
	return run, initial, w
}

// TestChurnCeilingFollowsHorizon: the id-space ceiling a live run is sized
// to counts the joins its horizon holds, and no more. Over every generator
// kind at several rates, windows, seeds and budgets, and over plans, the id
// space never passes MaxNodes(), and MaxNodes() is the initial id space plus
// d ids for each join the run applied — so a join drawn past the horizon, or
// a join left out, shows. The headroom over the final id space is d per
// applied join less the d per join that grew the trees: a join that revives
// a dummy adds no id. A plan that joins and leaves across a level boundary
// under the eager policy grows the trees on every join, reaching the
// ceiling exactly, so no smaller ceiling holds in general.
func TestChurnCeilingFollowsHorizon(t *testing.T) {
	gens := []string{
		"kind=poisson rate=0.5 seed=%d slots=0..",
		"kind=poisson rate=2 seed=%d max=3 slots=5..",
		"kind=poisson rate=4 seed=%d slots=3..12",
		"kind=flash rate=1 seed=%d slots=0..30",
		"kind=flash rate=4 seed=%d slots=4..500",
		"kind=wave rate=2 seed=%d slots=0..",
		"kind=wave rate=3 seed=%d max=5 slots=2..40",
	}
	runs := 0
	for _, n := range []int{20, 200} {
		for _, d := range []int{2, 3, 4} {
			for i, g := range gens {
				for seed := 1; seed <= 3; seed++ {
					policy := []string{"", " policy=lazy"}[(i+seed)%2]
					text := fmt.Sprintf("scheme multitree\nparam n=%d d=%d\nchurn "+g+policy+"\n", n, d, seed)
					run, initial, w := ceilingRun(t, text, nil)
					lc := run.Live
					if w.peak > lc.MaxNodes() {
						t.Errorf("id space reached %d past the ceiling %d\n%s", w.peak, lc.MaxNodes(), text)
					}
					if want := initial + d*lc.Joins(); lc.MaxNodes() != want {
						t.Errorf("ceiling %d, want %d = %d initial ids + d·%d applied joins\n%s",
							lc.MaxNodes(), want, initial, lc.Joins(), text)
					}
					runs++
				}
			}
		}
	}

	// Join and leave one fresh member per two slots up to the last slot of
	// the horizon, at a level boundary (d | n, no dummy), under eager repair.
	for _, d := range []int{2, 3, 4} {
		const slots = 30 // the last join fires at slot 29, the horizon's last
		n := 12 * d
		plan := &faults.Plan{Seed: 1}
		for at := core.Slot(1); at < slots; at += 2 {
			name := fmt.Sprintf("p%d", at)
			plan.Churn = append(plan.Churn, faults.ChurnEvent{At: at, Name: name})
			if at+1 < slots {
				plan.Churn = append(plan.Churn, faults.ChurnEvent{At: at + 1, Leave: true, Name: name})
			}
		}
		text := fmt.Sprintf("scheme multitree\nparam n=%d d=%d\nslots %d\nchurn kind=plan\n", n, d, slots)
		run, initial, w := ceilingRun(t, text, plan)
		if joins := slots / 2; run.Live.Joins() != joins {
			t.Fatalf("d=%d: %d joins applied, want %d", d, run.Live.Joins(), joins)
		}
		if want := initial + d*run.Live.Joins(); run.Live.MaxNodes() != want || w.peak != want {
			t.Errorf("d=%d: ceiling %d and peak id space %d, want both %d", d, run.Live.MaxNodes(), w.peak, want)
		}
		runs++
	}
	t.Logf("%d runs", runs)
}

// TestChurnCeilingIsPerHorizon: a live run's source is built for the horizon
// Build resolved, so raising Run.Opt.Slots afterwards lets the generator draw
// joins its ceiling never counted, and the run ends in the engine's ceiling
// error rather than writing past its state. Set `slots` in the scenario
// instead.
func TestChurnCeilingIsPerHorizon(t *testing.T) {
	sc, err := Parse("scheme multitree\nparam n=20 d=2\nchurn kind=flash rate=4 max=1000 slots=0..999\n")
	if err != nil {
		t.Fatal(err)
	}
	run, err := Build(sc)
	if err != nil {
		t.Fatal(err)
	}
	run.Opt.Slots *= 4
	if _, err := run.Execute(nil); err == nil || !strings.Contains(err.Error(), "the source undercounts its joins over the run's horizon") {
		t.Fatalf("horizon raised after Build: got %v, want the ceiling error", err)
	}
}

// TestChurnErrorNamesSlotOnce: a plan leave of a member that is not there
// aborts the run, and each layer of the message adds only what it alone
// knows: the engine the slot, the churn source the op's index, the scheme
// the member.
func TestChurnErrorNamesSlotOnce(t *testing.T) {
	sc, err := Parse("scheme multitree\nparam n=20 d=2\nchurn kind=plan\n")
	if err != nil {
		t.Fatal(err)
	}
	run, err := BuildWithPlan(sc, &faults.Plan{Seed: 1, Churn: []faults.ChurnEvent{{At: 4, Leave: true, Name: "ghost"}}})
	if err != nil {
		t.Fatal(err)
	}
	_, err = run.Execute(nil)
	const want = `slotsim: slot 4: churn: faults: churn op 1: multitree: member "ghost" not present`
	if err == nil || err.Error() != want {
		t.Fatalf("leave of an absent member: got %v, want %s", err, want)
	}
}
