package spec

import (
	"os"
	"strings"
	"testing"

	"streamcast/internal/core"
	"streamcast/internal/faults"
	"streamcast/internal/multitree"
	"streamcast/internal/slotsim"
)

// TestRegistryShape checks the declared registry facts: every family has
// docs, parameter defaults that validate against their own declarations,
// and a deterministic listing order.
func TestRegistryShape(t *testing.T) {
	fams := Families()
	if len(fams) != 8 {
		t.Fatalf("registry has %d families, want 8", len(fams))
	}
	for i := 1; i < len(fams); i++ {
		if fams[i-1].Name >= fams[i].Name {
			t.Fatalf("Families() not sorted: %q before %q", fams[i-1].Name, fams[i].Name)
		}
	}
	for _, f := range fams {
		if f.Doc == "" {
			t.Errorf("%s: no doc line", f.Name)
		}
		if Lookup(f.Name) != f {
			t.Errorf("Lookup(%q) does not round-trip", f.Name)
		}
		for _, p := range f.Params {
			if p.Doc == "" {
				t.Errorf("%s: parameter %s has no doc line", f.Name, p.Name)
			}
			if p.Def != "" {
				if err := p.validate(p.Def); err != nil {
					t.Errorf("%s: default %s=%s rejected: %v", f.Name, p.Name, p.Def, err)
				}
			}
		}
	}
	for _, name := range []string{"multitree", "hypercube", "chain", "singletree", "cluster", "gossip", "mdc", "randreg"} {
		if Lookup(name) == nil {
			t.Errorf("family %q not registered", name)
		}
	}
}

// TestCapabilitiesMatchSchemes verifies the declared capability flags
// against the constructed schemes: BestEffort families must run with
// AllowIncomplete, StaticCheck families must carry check options their
// default build passes, and every default scenario must build and run to
// completion on its automatic horizon.
func TestCapabilitiesMatchSchemes(t *testing.T) {
	for _, f := range Families() {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			run, err := Build(&Scenario{Scheme: f.Name})
			if err != nil {
				t.Fatal(err)
			}
			if run.Opt.AllowIncomplete != f.Caps.BestEffort {
				t.Errorf("Caps.BestEffort=%v but Opt.AllowIncomplete=%v", f.Caps.BestEffort, run.Opt.AllowIncomplete)
			}
			if (run.CheckOpt != nil) != f.Caps.StaticCheck {
				t.Errorf("Caps.StaticCheck=%v but CheckOpt=%v", f.Caps.StaticCheck, run.CheckOpt)
			}
			if f.Caps.StaticCheck {
				rep, err := run.Preflight()
				if err != nil {
					t.Fatal(err)
				}
				if !rep.OK() {
					t.Fatalf("default scenario rejected by internal/check: %v", rep.Issues)
				}
			}
			res, err := run.Execute(nil)
			if err != nil {
				t.Fatal(err)
			}
			if res.SlotsUsed <= 0 {
				t.Errorf("run used %d slots", res.SlotsUsed)
			}
		})
	}
}

// TestBuildOverrides checks the scenario-level horizon/window overrides
// and the convenience constructors.
func TestBuildOverrides(t *testing.T) {
	sc := MultiTreeScenario(40, 2, 0, core.Live)
	sc.Packets = 6
	sc.Slots = 77
	run, err := Build(sc)
	if err != nil {
		t.Fatal(err)
	}
	if run.Opt.Packets != 6 || run.Opt.Slots != 77 {
		t.Fatalf("overrides not applied: %+v", run.Opt)
	}
	if run.Opt.Mode != core.Live {
		t.Fatalf("mode = %v, want Live", run.Opt.Mode)
	}
	if _, err := slotsim.Run(run.Scheme, run.Opt); err != nil {
		t.Fatal(err)
	}

	for _, mk := range []*Scenario{
		HypercubeScenario(31, 1),
		ChainScenario(12),
		SingleTreeScenario(40, 2),
		ClusterScenario(4, 3, 5, 20, 3, 0),
		GossipScenario(30, 3, 5, 0, 7),
	} {
		if _, err := Build(mk); err != nil {
			t.Errorf("%s: %v", mk.Scheme, err)
		}
	}
}

// TestBuildChurnRequiresMultitree pins the gate on a plan's join/leave
// events: a static family refuses them outright, and the churn-capable one
// runs them live under `churn kind=plan` and in no other way — without the
// directive Build names the plan and the directive to add, it does not pick
// a mode on its own.
func TestBuildChurnRequiresMultitree(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/churn.plan"
	if err := os.WriteFile(path, []byte("seed 1\nleave node=any at=4\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	sc := HypercubeScenario(31, 1)
	sc.FaultsFile = path
	_, err := Build(sc)
	if err == nil || !strings.Contains(err.Error(), "churn-capable") {
		t.Fatalf("churn on hypercube: %v", err)
	}

	mt := MultiTreeScenario(30, 3, multitree.Greedy, core.PreRecorded)
	mt.FaultsFile = path
	_, err = Build(mt)
	if err == nil || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "churn kind=plan") {
		t.Fatalf("churn plan without the directive: got %v, want an error naming %s and `churn kind=plan`", err, path)
	}

	mt.Churn = &faults.Churn{Kind: faults.ChurnPlan}
	run, err := Build(mt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := run.Execute(nil); err != nil {
		t.Fatal(err)
	}
	if ops := run.Live.Ops(); len(ops) != 1 || ops[0].Slot != 4 || !ops[0].Leave {
		t.Fatalf("the plan's leave did not fire at its slot: %+v", ops)
	}
}

// TestReportCallersKeepTheRecord: a scenario with `out report=` builds with
// its arrival record kept, in every family. cmd/streamsim and
// bench/pipeline.go hand these options to slotsim.BuildReport, which panics
// on a nil record.
func TestReportCallersKeepTheRecord(t *testing.T) {
	for _, f := range Families() {
		run, err := Build(&Scenario{Scheme: f.Name, ReportOut: "report.json"})
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		if run.Opt.Arrivals == nil {
			t.Errorf("%s: a scenario that writes a report builds without an arrival record", f.Name)
		}
	}
}
