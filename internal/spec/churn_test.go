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
		ChurnKind: "poisson", ChurnRate: 0.5, ChurnSeed: 11, ChurnMax: 20,
		ChurnPolicy: "lazy", ChurnBegin: 10, ChurnEnd: 60,
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

	// policy=eager is the canonical default: parsed to the empty policy and
	// omitted from the canonical form.
	sc2, err := Parse("scheme multitree\nchurn kind=wave rate=2 policy=eager slots=3..\n")
	if err != nil {
		t.Fatal(err)
	}
	if sc2.ChurnPolicy != "" {
		t.Fatalf("policy=eager stored as %q, want empty", sc2.ChurnPolicy)
	}
	if strings.Contains(sc2.Format(), "policy") {
		t.Fatalf("canonical form spells the default policy: %q", sc2.Format())
	}
	if !strings.Contains(sc2.Format(), "slots=3..") {
		t.Fatalf("open window lost: %q", sc2.Format())
	}
}

// TestChurnDirectiveDiagnostics: malformed churn directives and invalid
// churn scenarios are rejected with precise messages.
func TestChurnDirectiveDiagnostics(t *testing.T) {
	cases := []struct{ src, want string }{
		{"scheme multitree\nchurn rate=1\n", "missing kind"},
		{"scheme multitree\nchurn kind=burst\n", "unknown kind"},
		{"scheme multitree\nchurn kind=poisson rate=zero\n", "not a positive finite number"},
		{"scheme multitree\nchurn kind=poisson rate=-1\n", "not a positive finite number"},
		{"scheme multitree\nchurn kind=poisson rate=Inf\n", "not a positive finite number"},
		{"scheme multitree\nchurn kind=poisson rate=1 seed=0\n", "non-zero integer"},
		{"scheme multitree\nchurn kind=poisson rate=1 max=0\n", "positive integer"},
		{"scheme multitree\nchurn kind=poisson rate=1 policy=maybe\n", "not eager or lazy"},
		{"scheme multitree\nchurn kind=poisson rate=1 slots=7\n", "not lo..hi"},
		{"scheme multitree\nchurn kind=poisson rate=1 slots=9..3\n", "at or after"},
		{"scheme multitree\nchurn kind=poisson rate=1 burst=2\n", "unknown argument"},
		{"scheme multitree\nchurn kind=poisson rate=1\nchurn kind=wave rate=1\n", "duplicate churn"},
		{"scheme multitree\nchurn kind=poisson\n", "needs rate"},
		{"scheme multitree\nchurn kind=flash rate=1\n", "bounded slots window"},
		{"scheme multitree\nchurn kind=plan rate=1\nfaults file=x.plan\n", "rate would be ignored"},
		{"scheme multitree\nchurn kind=plan slots=1..5\nfaults file=x.plan\n", "slots window would be ignored"},
		{"scheme hypercube\nchurn kind=poisson rate=1\n", "cannot run live churn"},
		{"scheme multitree\nparam construction=structured\nchurn kind=poisson rate=1\n", "cannot churn"},
		{"scheme multitree\nchurn kind=poisson rate=1\ncheck\n", "drop check"},
	}
	for _, tc := range cases {
		if _, err := Parse(tc.src); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%q: got %v, want %q", tc.src, err, tc.want)
		}
	}

	// Churn fields without a kind are rejected by Validate (programmatic
	// scenarios cannot smuggle ignored parameters).
	sc := &Scenario{Scheme: "multitree", ChurnRate: 1}
	if err := sc.Validate(); err == nil || !strings.Contains(err.Error(), "without a churn kind") {
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
	sc.ChurnPolicy = policy
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
			run.Opt.Observer = obs.Combine(rec, met)
			res, err := run.Execute()
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
	if _, err := run.Execute(); err != nil {
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
	if _, err := run.Execute(); err == nil || !strings.Contains(err.Error(), "single-shot") {
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
	if _, err := run.Execute(); err != nil {
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
