package experiments

import (
	"testing"

	"streamcast/internal/core"
	"streamcast/internal/multitree"
	"streamcast/internal/obs"
	"streamcast/internal/spec"
)

// TestReportCallersKeepTheRecord: with a report sink installed, simulateRun
// gives a run that keeps no arrival record one before it builds the report,
// which slotsim.BuildReport needs (it panics on a nil record).
func TestReportCallersKeepTheRecord(t *testing.T) {
	run, err := spec.Build(spec.MultiTreeScenario(40, 3, multitree.Greedy, core.PreRecorded))
	if err != nil {
		t.Fatal(err)
	}
	if run.Opt.Arrivals != nil {
		t.Fatal("the scenario already keeps a record; the test needs one that does not")
	}
	var reports []*obs.RunReport
	SetReportSink(func(r *obs.RunReport) { reports = append(reports, r) })
	defer SetReportSink(nil)
	if _, err := simulateRun(run, nil); err != nil {
		t.Fatal(err)
	}
	if len(reports) != 1 || len(reports[0].Series.BufferMax) == 0 {
		t.Fatalf("%d reports, want one with a buffer series", len(reports))
	}
}
