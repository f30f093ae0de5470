package obs_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"streamcast/internal/core"
	"streamcast/internal/obs"
	"streamcast/internal/slotsim"
	"streamcast/internal/spec"
)

var update = flag.Bool("update", false, "rewrite testdata/metrics_golden.txt from the current collector")

// goldenRuns are the three seeded runs whose full Metrics state is pinned
// in testdata/metrics_golden.txt. The file was written by the per-node
// arrival-slice collector that preceded the flat arrival log, so a diff
// here means the struct-of-arrays Metrics changed an observable value.
var goldenRuns = []struct {
	name, scenario string
	files          map[string]string
}{
	{name: "multitree-clean", scenario: "scheme multitree\nparam d=3 n=40\npackets 12\n"},
	{name: "hypercube-clean", scenario: "scheme hypercube\nparam d=2 n=31\npackets 10\n"},
	{
		name:     "multitree-churn-loss",
		scenario: "scheme multitree\nparam d=3 n=60\npackets 40\nfaults file=%s\nchurn kind=poisson rate=1 seed=5 policy=lazy slots=8..\n",
		files:    map[string]string{"loss.plan": "seed 7\nloss from=any to=any rate=0.05 slots=0..\n"},
	},
}

// renderMetrics prints everything a Metrics collector exposes, one value
// per line, in a form stable enough to diff.
func renderMetrics(w *bytes.Buffer, name string, m *obs.Metrics, res *slotsim.Result) {
	fmt.Fprintf(w, "== %s\n", name)
	fmt.Fprintf(w, "fingerprint %s\n", m.Fingerprint())
	fmt.Fprintf(w, "totals %+v\n", m.Totals())
	for _, s := range m.SlotSeries() {
		fmt.Fprintf(w, "slot %+v\n", s)
	}
	fmt.Fprintf(w, "nodes %d\n", m.NodeCount())
	for id := 0; id < m.NodeCount(); id++ {
		fmt.Fprintf(w, "node %d %+v\n", id, m.Node(core.NodeID(id)))
	}
	h := m.Latency()
	fmt.Fprintf(w, "latency n=%d sum=%g min=%g max=%g buckets=%v\n", h.N, h.Sum, h.Min, h.Max, h.Counts)
	for id, row := range m.OccupancySeries(res.StartDelay, res.Packets) {
		fmt.Fprintf(w, "occ %d %v\n", id, row)
	}
}

// TestMetricsGolden replays the pinned runs and compares every exported
// view of the collector against the checked-in golden.
func TestMetricsGolden(t *testing.T) {
	dir := t.TempDir()
	var got bytes.Buffer
	sawDrop, sawDup := false, false
	for _, g := range goldenRuns {
		text := g.scenario
		for name, body := range g.files {
			path := filepath.Join(dir, name)
			if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
			text = fmt.Sprintf(text, path)
		}
		sc, err := spec.Parse(text)
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		run, err := spec.Build(sc)
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		m := obs.NewMetrics()
		opt := run.Opt
		opt.Observer = m
		res, err := slotsim.Run(run.Scheme, opt)
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		tot := m.Totals()
		sawDrop = sawDrop || tot.Drops > 0
		sawDup = sawDup || tot.Duplicates > 0
		renderMetrics(&got, g.name, m, res)
	}
	if !sawDrop || !sawDup {
		t.Fatalf("golden runs must cover drops (%v) and duplicates (%v)", sawDrop, sawDup)
	}

	path := filepath.Join("testdata", "metrics_golden.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("metrics drifted from the golden at line %d:\n got %s\nwant %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("metrics drifted from the golden: %d lines, want %d", len(gl), len(wl))
	}
}
