package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"streamcast/internal/experiments"
	"streamcast/internal/obs"
)

// TestTablesMatchResults regenerates every table at the sizes `-run all`
// uses and holds its CSV to the committed results/<name>.csv byte for byte:
// a change that moves any recorded number fails here, not only in the
// end-to-end benchmark. schemes has no committed copy.
func TestTablesMatchResults(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates every table at full size")
	}
	checked := 0
	for _, r := range runners(false) {
		if r.name == "schemes" {
			continue
		}
		want, err := os.ReadFile(filepath.Join("..", "..", "results", r.name+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		tab, err := r.run()
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		var got bytes.Buffer
		tab.CSV(&got)
		if !bytes.Equal(got.Bytes(), want) {
			g, w := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
			line := 0
			for line < min(len(g), len(w)) && bytes.Equal(g[line], w[line]) {
				line++
			}
			t.Errorf("%s: CSV differs from results/%s.csv from line %d:\n got %q\nwant %q",
				r.name, r.name, line+1, g[min(line, len(g)-1)], w[min(line, len(w)-1)])
		}
		checked++
	}
	if checked != 17 {
		t.Errorf("checked %d tables against results/, want 17", checked)
	}
}

// TestSimulatingRunnersReport runs every table at the -quick sizes with a
// report sink installed: each table whose rows are engine runs must send at
// least one run report, so -reports misses no simulation. The four tables
// that run no engine — fig4 (closed form), degree, churncmp and churnimpact
// (topology bookkeeping) — must send none.
func TestSimulatingRunnersReport(t *testing.T) {
	noEngine := map[string]bool{"fig4": true, "degree": true, "churncmp": true, "churnimpact": true}
	defer experiments.SetReportSink(nil)
	for _, r := range runners(true) {
		reports := 0
		experiments.SetReportSink(func(*obs.RunReport) { reports++ })
		if _, err := r.run(); err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		switch {
		case noEngine[r.name] && reports > 0:
			t.Errorf("%s: %d run reports from a table listed as running no engine", r.name, reports)
		case !noEngine[r.name] && reports == 0:
			t.Errorf("%s: no run report; every engine run must reach the report sink", r.name)
		}
	}
}
