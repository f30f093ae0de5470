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
// check options, and the fault injector. It is the registry's product, and
// it has one door per stage: Preflight checks it and Execute runs it. The
// CLI, the experiment runners and the examples go through both instead of
// handing the scheme to the checker or the engine themselves.
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
	// capacities, injected faults). Opt.Arrivals, the record of arrival
	// slots the engine fills as it runs, is set exactly for the runs whose
	// reports read it — live churn (ChurnReport), the mdc family
	// (mdc.SystemQuality) and a scenario that writes `out report=`
	// (slotsim.BuildReport's buffer series); every other run keeps none. A
	// caller with a reader of its own points it at an Arrivals before
	// executing. Either way the run summarises its window from the one
	// ledger every run keeps.
	Opt slotsim.Options
	// CheckOpt are the static-verifier options; nil when the family is
	// not statically checkable or the run has live churn. CheckOpt.Run is
	// Opt as it stands before the arrival record and a fault plan are
	// attached, over the verifier's own horizon where the family derives
	// one (multitree, hypercube, cluster): the check audits the fault-free
	// schedule. Build sets it that way for every family.
	CheckOpt *check.Options
	// Injector is the fault injector; nil without a fault plan.
	Injector *faults.Injector
	// Plan is the loaded fault plan backing Injector.
	Plan *faults.Plan
	// Live is the run's mid-run churn source; nil without a churn
	// directive. After Execute it holds the applied op log, the membership
	// windows (for slotsim.PlaybackSLO), and the first churn slot. The
	// source is single-shot: a second Execute fails at slot 0.
	Live *faults.LiveChurn
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
		return nil, err
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
	churnKind := ""
	if sc.Churn != nil {
		churnKind = sc.Churn.Kind
	}
	planChurn := plan != nil && len(plan.Churn) > 0
	if planChurn && churnKind != faults.ChurnPlan {
		source := sc.FaultsFile
		if source == "" {
			source = "the fault plan"
		}
		if !f.Caps.LiveChurn {
			return nil, fmt.Errorf("spec: churn events in %s require a churn-capable scheme (multitree); %s is static",
				source, sc.Scheme)
		}
		has := "no churn directive"
		if churnKind != "" {
			has = "churn kind=" + churnKind + ", which generates its own"
		}
		return nil, fmt.Errorf("spec: %s carries join/leave events, which fire only under `churn kind=plan`, and this run has %s; set the directive or strip the plan's join/leave lines",
			source, has)
	}
	if !planChurn && churnKind == faults.ChurnPlan {
		return nil, fmt.Errorf("spec: churn kind=plan needs a fault plan with join/leave events (faults file=... or a programmatic plan)")
	}

	mode := core.Live // LiveOnly; an OwnMode builder sets its own
	if f.Mode == AnyMode {
		mode = core.PreRecorded
		if sc.Mode != "" {
			mode = modeNames[sc.Mode]
		}
	}

	packets := core.Packet(sc.Packets)
	if packets == 0 {
		packets = f.defaultPackets(v)
	}

	out, err := f.build(buildInput{Values: v, Mode: mode, Packets: packets, Plan: plan, Churn: sc.Churn, Graph: sc.graph})
	if err != nil {
		return nil, fmt.Errorf("spec: scheme %s: %w", sc.Scheme, err)
	}

	opt := out.Opt
	if f.Mode != OwnMode {
		opt.Mode = mode
	}
	if f.Caps.BestEffort {
		opt.AllowIncomplete = true
	}
	opt.Packets = packets
	if opt.Slots == 0 {
		opt.Slots = core.Slot(int(packets)) + out.Extra
	}
	if sc.Slots > 0 {
		opt.Slots = core.Slot(sc.Slots)
	}
	if churnKind == faults.ChurnPlan {
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

	run := &Run{
		Scenario: sc,
		Family:   f,
		Values:   v,
		Scheme:   out.Scheme,
		Plan:     plan,
	}
	if f.Caps.StaticCheck && out.Live == nil {
		// The verifier runs the run's engine options as they stand here,
		// before the arrival record or a fault plan is attached. A family's
		// derived options add the audit bounds and a horizon of their own;
		// without them (the baselines) the audit is the generic one.
		chk := check.Options{}
		if out.Check != nil {
			chk = *out.Check
		}
		horizon := chk.Run.Slots
		chk.Run = opt
		if horizon > 0 {
			chk.Run.Slots = horizon
		}
		run.CheckOpt = &chk
	}
	if out.Live != nil {
		// The horizon is final, so the source can count the joins it holds
		// and size the engine's id space to them.
		cfg := *out.Live
		cfg.Slots = opt.Slots
		if run.Live, err = faults.NewLiveChurn(cfg); err != nil {
			return nil, fmt.Errorf("spec: scheme %s: %w", sc.Scheme, err)
		}
		opt.Churn = run.Live
	}
	if out.Live != nil || sc.ReportOut != "" {
		// ChurnReport's PlaybackSLO and BuildReport's buffer series read it.
		opt.Arrivals = new(slotsim.Arrivals)
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
	return run, nil
}

// Preflight runs the static schedule/mesh verifier against the run.
func (r *Run) Preflight() (*check.Report, error) {
	if r.CheckOpt == nil {
		return nil, fmt.Errorf("spec: scheme %s is not statically checkable", r.Family.Name)
	}
	return check.Static(r.Scheme, *r.CheckOpt)
}

// Execute runs the scenario on the slotsim engine with o watching every
// slot. A nil o leaves the run direct, so a bare run may stop once its
// window is complete. The `parallel` directive is accepted and ignored: the
// engine is single-threaded and results never depended on worker count.
func (r *Run) Execute(o obs.Observer) (*slotsim.Result, error) {
	opt := r.Opt
	opt.Observer = o
	return slotsim.Run(r.Scheme, opt)
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
		Kind:              r.Scenario.Churn.Kind,
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
