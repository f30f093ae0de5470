package spec

import (
	"fmt"
	"reflect"
	"testing"

	"streamcast/internal/check"
	"streamcast/internal/slotsim"
)

// TestPreflightIgnoresFaultPlan: the static check audits the fault-free
// schedule, so a fault plan changes none of its findings. A 100-node chain
// cut to 50 slots starves 32 receivers of their window; with a loss plan the
// check must reject it with the same 32 findings, not pass it because the
// plan let the run itself finish incomplete.
func TestPreflightIgnoresFaultPlan(t *testing.T) {
	const text = "scheme chain\nparam n=100\nslots 50\ncheck\n"
	var want []check.Issue
	for _, extra := range []string{"", "faults file=../faults/testdata/corpus/loss.plan\n"} {
		sc, err := Parse(text + extra)
		if err != nil {
			t.Fatal(err)
		}
		run, err := Build(sc)
		if err != nil {
			t.Fatal(err)
		}
		if (run.Injector != nil) != (extra != "") {
			t.Fatalf("%q: injector %v", extra, run.Injector)
		}
		rep, err := run.Preflight()
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Issues) != 32 || !rep.HasKind(check.KindIncomplete) {
			t.Fatalf("%q: want 32 incomplete-delivery findings, got %d: %v", extra, len(rep.Issues), rep.Err())
		}
		if want == nil {
			want = rep.Issues
		} else if !reflect.DeepEqual(rep.Issues, want) {
			t.Errorf("the loss plan changed the findings:\n got %v\nwant %v", rep.Issues, want)
		}
	}
}

// TestCheckRunIsTheRunsOptions pins the one engine configuration: for every
// statically checkable family at default parameters, the verifier's
// CheckOpt.Run is the run's Opt in every field but the horizon — window,
// mode, completeness flags, capacities and in-flight hook (cluster's Tc
// latency included). A fault plan changes the run's Opt, never its
// CheckOpt.Run.
func TestCheckRunIsTheRunsOptions(t *testing.T) {
	for _, f := range Families() {
		if !f.Caps.StaticCheck {
			continue
		}
		t.Run(f.Name, func(t *testing.T) {
			run, err := Build(&Scenario{Scheme: f.Name})
			if err != nil {
				t.Fatal(err)
			}
			c := run.CheckOpt.Run
			if !sameEngine(c, run.Opt) {
				t.Errorf("CheckOpt.Run differs from Opt:\n%#v\n%#v", c, run.Opt)
			}
			for _, plan := range []string{"loss", "delay"} {
				fr, err := Build(&Scenario{Scheme: f.Name, FaultsFile: "../faults/testdata/corpus/" + plan + ".plan"})
				if err != nil {
					t.Fatal(err)
				}
				if fr.CheckOpt.Run.Slots != c.Slots || !sameEngine(fr.CheckOpt.Run, c) {
					t.Errorf("%s plan reaches CheckOpt.Run:\n%#v\n%#v", plan, fr.CheckOpt.Run, c)
				}
				// The comparison sees the plan where it belongs: in Opt.
				if sameEngine(fr.Opt, c) {
					t.Errorf("%s plan: the faulted Opt reads as fault-free", plan)
				}
			}
		})
	}
}

// sameEngine reports whether two engine configurations agree in every field
// but the horizon. Hooks and capacity functions compare by the pointer they
// print as (Go cannot compare function values), so a fault plan — which
// wraps the hook, sets the skip flags and may add a receive capacity — shows.
func sameEngine(a, b slotsim.Options) bool {
	a.Slots = b.Slots
	return fmt.Sprintf("%#v", a) == fmt.Sprintf("%#v", b)
}
