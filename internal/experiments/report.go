package experiments

import (
	"sync"

	"streamcast/internal/core"
	"streamcast/internal/obs"
	"streamcast/internal/slotsim"
	"streamcast/internal/spec"
)

// reportMu guards reportSink: runners consult it per simulation and may in
// principle race with SetReportSink; forEachRow additionally degrades to a
// serial sweep while a sink is installed so callbacks arrive in row order.
var reportMu sync.Mutex

// reportSink, when set, receives a RunReport for every simulation a runner
// executes through simulateRun.
var reportSink func(*obs.RunReport)

// SetReportSink installs (or, with nil, removes) a callback invoked with
// the machine-readable run report of every engine execution the experiment
// runners perform — one report per simulated scheme configuration, carrying
// the per-slot buffer/traffic series behind the table's aggregate numbers.
// Every table whose rows are engine runs reports, the cluster and mdc tables
// included; fig4 (closed form), degree, churncmp and churnimpact (topology
// bookkeeping) run no engine and report nothing. cmd/experiments uses it to
// implement -reports. Safe to call concurrently with runner execution; while
// a sink is installed, runners execute their sweeps serially so the sink
// observes reports in deterministic row order.
func SetReportSink(fn func(*obs.RunReport)) {
	reportMu.Lock()
	reportSink = fn
	reportMu.Unlock()
}

// currentSink returns the installed sink, if any.
func currentSink() func(*obs.RunReport) {
	reportMu.Lock()
	defer reportMu.Unlock()
	return reportSink
}

// reportsActive reports whether a run-report sink is installed.
func reportsActive() bool { return currentSink() != nil }

// simulateRun executes a registry-built run under m, when the caller wants
// its metrics, and sends the run's report to the sink when one is installed
// (under metrics of its own if m is nil, and keeping the arrival record the
// report's buffer series are folded from). A run with neither stays direct.
func simulateRun(run *spec.Run, m *obs.Metrics) (*slotsim.Result, error) {
	sink := currentSink()
	if sink == nil && m == nil {
		return run.Execute(nil)
	}
	if m == nil {
		m = obs.NewMetrics()
	}
	if sink != nil && run.Opt.Arrivals == nil {
		run.Opt.Arrivals = new(slotsim.Arrivals)
	}
	res, err := run.Execute(m)
	if err != nil || sink == nil {
		return res, err
	}
	rep := slotsim.BuildReport(run.Scheme, run.Opt, res, m, 0)
	rep.Churn = run.ChurnReport(res)
	sink(rep)
	return res, nil
}

// specResult resolves a scenario through the scheme registry, statically
// verifies it when asked, and simulates it through the report sink. It is
// the runners' single construction path: experiment sweep rows are Scenario
// values, and the registry decides how each becomes a scheme.
func specResult(sc *spec.Scenario, verify bool) (*spec.Run, *slotsim.Result, error) {
	run, err := spec.Build(sc)
	if err != nil {
		return nil, nil, err
	}
	if verify {
		rep, err := run.Preflight()
		if err != nil {
			return nil, nil, err
		}
		if err := rep.Err(); err != nil {
			return nil, nil, err
		}
	}
	res, err := simulateRun(run, nil)
	if err != nil {
		return nil, nil, err
	}
	return run, res, nil
}

// survivors lists the receivers a run's per-member statistics range over:
// every receiver of a static run, the members still live at the end of a
// live-churn one (its id space also holds padding dummies and the ids of the
// departed). Call it after the run.
func survivors(run *spec.Run) []core.NodeID {
	if ds, ok := run.Scheme.(core.DynamicScheme); ok {
		members := ds.Members()
		ids := make([]core.NodeID, len(members))
		for i, m := range members {
			ids[i] = m.Node
		}
		return ids
	}
	ids := make([]core.NodeID, run.Scheme.NumReceivers())
	for i := range ids {
		ids[i] = core.NodeID(i + 1)
	}
	return ids
}
