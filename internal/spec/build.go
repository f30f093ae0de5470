package spec

import (
	"fmt"

	"streamcast/internal/check"
	"streamcast/internal/core"
	"streamcast/internal/faults"
	"streamcast/internal/obs"
	"streamcast/internal/slotsim"
)

// Run is a scenario resolved into everything the engine needs: the
// constructed scheme, fully populated slotsim options, the preflight
// check options, and the fault injector. It is the registry's product —
// every layer (CLI, experiments, integration suites, benchmarks) executes
// schemes through a Run instead of calling constructors directly.
type Run struct {
	// Scenario is the validated input.
	Scenario *Scenario
	// Family is the registry entry that built the run.
	Family *Family
	// Values are the fully resolved parameters (defaults filled in).
	Values Values
	// Scheme is the constructed scheme.
	Scheme core.Scheme
	// Opt are the complete engine options (horizon, window, mode,
	// capacities, injected faults). Opt.Arrivals is set exactly for the runs
	// whose reports read arrival cells — live churn (ChurnReport) and the mdc
	// family (mdc.SystemQuality) — and holds them after the run; every other
	// run keeps none. A caller with a cell reader of its own points it at an
	// Arrivals before executing.
	Opt slotsim.Options
	// CheckOpt are the static-verifier options; nil when the family is
	// not statically checkable.
	CheckOpt *check.Options
	// Injector is the fault injector; nil without a fault plan.
	Injector *faults.Injector
	// Plan is the loaded fault plan backing Injector.
	Plan *faults.Plan
	// Live is the run's mid-run churn source; nil without a churn
	// directive. After Execute it holds the applied op log, the membership
	// windows (for slotsim.PlaybackSLO), and the first churn slot.
	Live *faults.LiveChurn
	// executed guards the single-shot property of live-churn runs: the
	// churn source consumes its op log, so one Run executes at most once.
	executed bool
	// schedule memoises Schedule.
	schedule core.Scheme
}

// Schedule returns the one schedule Preflight and Execute both replay, so
// that it is generated once for compile, check and run: a compiled snapshot
// when the topology is static and core.CompileForRun takes the scheme at the
// run's horizon, else the scheme itself (a live topology is re-snapshotted
// per epoch inside the run). A snapshot carries the scheme's name, size and
// mesh; callers that need the concrete scheme use Scheme.
func (r *Run) Schedule() core.Scheme {
	if r.schedule == nil {
		r.schedule = r.Scheme
		if r.Live == nil {
			if c := core.CompileForRun(r.Scheme, r.Opt.Slots); c != nil {
				r.schedule = c
			}
		}
	}
	return r.schedule
}

// Build resolves a scenario through the registry into a Run. It validates
// the scenario, resolves parameters against the family defaults, loads the
// fault plan, constructs the scheme exactly once, and derives the engine and
// check options. A plan's join/leave events fire live, at their slot
// barriers, under `churn kind=plan` and in no other way: a plan that carries
// them on a run without that directive is an error, not an implied mode, and
// so is an event at or past the horizon, which would never fire.
func Build(sc *Scenario) (*Run, error) { return BuildWithPlan(sc, nil) }

// BuildWithPlan is Build with a programmatic fault plan taking the place of
// the scenario's faults file — for callers (the fault-degradation sweeps)
// that generate plans in memory rather than loading them from disk. A nil
// plan falls back to the scenario's FaultsFile, making Build a special case.
func BuildWithPlan(sc *Scenario, plan *faults.Plan) (*Run, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	f := Lookup(sc.Scheme)
	v, err := f.resolve(sc.Params)
	if err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}

	if plan == nil && sc.FaultsFile != "" {
		plan, err = faults.Load(sc.FaultsFile)
		if err != nil {
			return nil, err
		}
		if sc.FaultSeed != 0 {
			plan.Seed = sc.FaultSeed
		}
	}
	planChurn := plan != nil && len(plan.Churn) > 0
	if planChurn && sc.ChurnKind != faults.ChurnPlan {
		source := sc.FaultsFile
		if source == "" {
			source = "the fault plan"
		}
		if !f.Caps.LiveChurn {
			return nil, fmt.Errorf("spec: churn events in %s require a churn-capable scheme (multitree); %s is static",
				source, sc.Scheme)
		}
		has := "no churn directive"
		if sc.ChurnKind != "" {
			has = "churn kind=" + sc.ChurnKind + ", which generates its own"
		}
		return nil, fmt.Errorf("spec: %s carries join/leave events, which fire only under `churn kind=plan` (streamsim -churn plan), and this run has %s; set the directive or strip the plan's join/leave lines",
			source, has)
	}
	if !planChurn && sc.ChurnKind == faults.ChurnPlan {
		return nil, fmt.Errorf("spec: churn kind=plan needs a fault plan with join/leave events (faults file=... or a programmatic plan)")
	}

	mode := f.ForcedMode
	if !f.HasForcedMode && !f.InternalMode {
		mode = core.PreRecorded
		if sc.Mode != "" {
			mode = modeNames[sc.Mode]
		}
	}

	packets := core.Packet(sc.Packets)
	if packets == 0 {
		packets = f.defaultPackets(v)
	}

	var churn *churnSpec
	if sc.ChurnKind != "" {
		churn = &churnSpec{
			Kind: sc.ChurnKind, Rate: sc.ChurnRate, Seed: sc.ChurnSeed,
			Lazy: sc.ChurnPolicy == "lazy", Max: sc.ChurnMax,
			Begin: core.Slot(sc.ChurnBegin), End: core.Slot(sc.ChurnEnd),
		}
	}

	out, err := f.build(buildInput{Values: v, Mode: mode, Packets: packets, Plan: plan, Churn: churn})
	if err != nil {
		return nil, fmt.Errorf("spec: scheme %s: %w", sc.Scheme, err)
	}

	opt := out.Opt
	opt.Packets = packets
	if opt.Slots == 0 {
		opt.Slots = core.Slot(int(packets)) + out.Extra
	}
	if sc.Slots > 0 {
		opt.Slots = core.Slot(sc.Slots)
	}
	if sc.ChurnKind == faults.ChurnPlan {
		for i, e := range plan.Churn {
			if e.At >= opt.Slots {
				verb := "join"
				if e.Leave {
					verb = "leave"
				}
				return nil, fmt.Errorf("spec: churn event %d (%s %s at slot %d) would never fire: the run's horizon is %d slots, 0..%d; move the event or raise `slots`",
					i+1, verb, e.Name, e.At, opt.Slots, opt.Slots-1)
			}
		}
	}

	if out.Live != nil {
		opt.Arrivals = new(slotsim.Arrivals) // ChurnReport's PlaybackSLO reads cells
	}

	run := &Run{
		Scenario: sc,
		Family:   f,
		Values:   v,
		Scheme:   out.Scheme,
		Plan:     plan,
		Live:     out.Live,
	}
	if plan != nil {
		in, err := faults.NewInjector(plan)
		if err != nil {
			return nil, err
		}
		run.Injector = in
		opt = in.Apply(opt)
	}
	run.Opt = opt

	if f.Caps.StaticCheck && out.Live == nil {
		var chkOpt check.Options
		if out.MkCheck != nil {
			chkOpt = out.MkCheck(packets)
		} else {
			// Generic engine-derived audit for families without a
			// closed-form bound mapping (the baselines).
			chkOpt = check.Options{
				Horizon: opt.Slots, Packets: packets, Mode: opt.Mode,
				SendCap: opt.SendCap, CheckMesh: true,
				AllowIncomplete: opt.AllowIncomplete,
			}
		}
		run.CheckOpt = &chkOpt
	}
	return run, nil
}

// Preflight runs the static schedule/mesh verifier against the run.
func (r *Run) Preflight() (*check.Report, error) {
	if r.CheckOpt == nil {
		return nil, fmt.Errorf("spec: scheme %s is not statically checkable", r.Family.Name)
	}
	return check.Static(r.Schedule(), *r.CheckOpt)
}

// Execute runs the scenario on the slotsim engine. The `parallel` directive
// is accepted and ignored: the engine is single-threaded and results never
// depended on worker count.
func (r *Run) Execute() (*slotsim.Result, error) {
	if r.Live != nil {
		if r.executed {
			return nil, fmt.Errorf("spec: a live-churn run is single-shot (the churn source and topology were consumed); Build the scenario again")
		}
		r.executed = true
	}
	return slotsim.Run(r.Schedule(), r.Opt)
}

// churnProbe is how many leading expected packets a node samples before
// committing to its playback start delay in the SLO model — the moral
// equivalent of a player's short initial buffering phase.
const churnProbe = 3

// ChurnReport assembles the report's live-churn section from an executed
// run: the churn source's op/swap summary plus the playback SLOs of the
// members still live at the end, read from the cells the run left in
// Opt.Arrivals. Nil for runs without live churn — callers can assign it to a
// report's Churn field unconditionally.
func (r *Run) ChurnReport(res *slotsim.Result) *obs.ChurnSLO {
	if r.Live == nil || res == nil {
		return nil
	}
	sum := r.Live.Summary()
	slo := slotsim.PlaybackSLO(res, r.Opt.Arrivals, r.Live.Membership(), churnProbe, r.Live.FirstChurnSlot())
	return &obs.ChurnSLO{
		Kind:              r.Scenario.ChurnKind,
		Ops:               sum.Ops,
		Joins:             r.Live.Joins(),
		Leaves:            r.Live.Leaves(),
		FirstChurnSlot:    int(r.Live.FirstChurnSlot()),
		TotalSwaps:        sum.TotalSwaps,
		MaxSwaps:          sum.MaxSwaps,
		AvgSwaps:          sum.AvgSwaps,
		SwapBound:         sum.Bound,
		NodesMeasured:     slo.Nodes,
		ExpectedPackets:   slo.Expected,
		Hiccups:           slo.Hiccups,
		Gaps:              slo.Gaps,
		MaxStallSlots:     int(slo.MaxStall),
		RebufferRatio:     slo.RebufferRatio,
		TimeToRepairSlots: int(slo.TimeToRepair),
	}
}
