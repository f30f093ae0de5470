package trace

import (
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"streamcast/internal/core"
	"streamcast/internal/hypercube"
	"streamcast/internal/multitree"
	"streamcast/internal/obs"
	"streamcast/internal/slotsim"
)

var update = flag.Bool("update", false, "rewrite golden files")

// golden compares output against a testdata file (regenerate with
// `go test ./internal/trace -run Golden -update`).
func golden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file %s (run with -update): %v", path, err)
	}
	if string(want) != got {
		t.Errorf("%s: rendering changed;\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

func TestGoldenFigures(t *testing.T) {
	m, err := multitree.New(15, 3, multitree.Structured)
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "fig3_structured.txt", Trees(m))

	g, err := multitree.New(15, 3, multitree.Greedy)
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "fig2_node6_greedy.txt", NodeSchedule(multitree.NewScheme(g, core.PreRecorded), 6))
	golden(t, "fig1_cluster.txt", ClusterTree(9, 3, 4))
	golden(t, "fig7_pairs.txt", HypercubePairs(3))

	buf, err := HypercubeBufferTrace(3, 6, 7)
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "fig5_buffer_trace.txt", buf)

	curves, err := DelayCurves(600, 200, []int{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "fig4_curves.txt", curves)
}

// eventLog executes the scheme under a JSONL trace recorder and returns the
// event log: one JSON object per engine event, in the engine's
// deterministic order.
func eventLog(s core.Scheme, opt slotsim.Options) (string, error) {
	var buf strings.Builder
	j := obs.NewJSONLWriter(&buf)
	opt.Observer = obs.Combine(opt.Observer, j)
	_, err := slotsim.Run(s, opt)
	// A failed run is flushed too: Flush joins the writer's encoder.
	if ferr := j.Flush(); err == nil {
		err = ferr
	}
	if err != nil {
		return "", err
	}
	return buf.String(), nil
}

// TestGoldenEventLog pins the JSONL event-log format (obs.JSONLWriter) on
// a small hypercube run, so external tooling can rely on it.
func TestGoldenEventLog(t *testing.T) {
	s, err := hypercube.New(3, 1) // one 2-cube, N = 2^2 - 1
	if err != nil {
		t.Fatal(err)
	}
	log, err := eventLog(s, slotsim.Options{Slots: 8, Packets: 3, Mode: core.Live})
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "events_hypercube_k2.jsonl", log)
}

// TestDelayCurvesShape sanity-checks the chart contents.
func TestDelayCurvesShape(t *testing.T) {
	out, err := DelayCurves(400, 200, []int{2, 5})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "d=2") || !strings.Contains(out, "d=5") {
		t.Errorf("missing degree headers:\n%s", out)
	}
	if !strings.Contains(out, "#") {
		t.Errorf("missing bars:\n%s", out)
	}
}

// TestEventLogFailedRunJoinsEncoder: a run the engine aborts — here a
// horizon too short to deliver the window, after tens of thousands of
// events — still has its trace writer flushed, so the writer's encoder
// goroutine does not outlive eventLog.
func TestEventLogFailedRunJoinsEncoder(t *testing.T) {
	mt, err := multitree.New(2000, 3, multitree.Greedy)
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	if _, err := eventLog(multitree.NewScheme(mt, core.PreRecorded), slotsim.Options{Slots: 12, Packets: 24}); err == nil {
		t.Fatal("eventLog succeeded; want the engine's incomplete-delivery error")
	}
	// The encoder has signalled its end; give it time to return.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base && time.Now().Before(deadline); {
		runtime.Gosched()
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines after a failed eventLog, want at most %d", n, base)
	}
}
