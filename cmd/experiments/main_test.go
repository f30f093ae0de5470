package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"streamcast/internal/experiments"
	"streamcast/internal/obs"
)

// invoke runs the command in-process and returns its exit status and output.
func invoke(args ...string) (code int, stdout, stderr string) {
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// TestTablesMatchResults runs `experiments -run all -csv -out DIR` in-process,
// on the concurrent path the command takes, and holds every table's CSV to the
// committed results/<name>.csv byte for byte: a change that moves any
// recorded number fails here, not only in the end-to-end benchmark. schemes
// has no committed copy. stdout must be the -out files in runner order.
func TestTablesMatchResults(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates every table at full size")
	}
	dir := t.TempDir()
	code, stdout, stderr := invoke("-run", "all", "-csv", "-out", dir)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	checked := 0
	var all []byte
	for _, r := range runners(false) {
		got, err := os.ReadFile(filepath.Join(dir, r.name+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, got...)
		if r.name == "schemes" {
			continue
		}
		want, err := os.ReadFile(filepath.Join("..", "..", "results", r.name+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
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
	if stdout != string(all) {
		t.Error("stdout differs from the -out files concatenated in runner order")
	}
}

// TestOverlappedSweepMatchesSerial holds `-run all -quick -csv`, whose tables
// overlap, to the tables of runners(true) built one after another and
// concatenated in runner order.
func TestOverlappedSweepMatchesSerial(t *testing.T) {
	var want bytes.Buffer
	for _, r := range runners(true) {
		tab, err := r.run()
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if err := tab.CSV(&want); err != nil {
			t.Fatal(err)
		}
	}
	code, stdout, stderr := invoke("-run", "all", "-quick", "-csv")
	if code != 0 || stderr != "" {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	if stdout != want.String() {
		t.Errorf("overlapped stdout differs from the serial tables:\n got %d bytes\nwant %d bytes", len(stdout), want.Len())
	}
}

// fixed is a runner whose table has one row, built after a pause.
func fixed(name string, pause time.Duration, err error) runner {
	return runner{name, func() (*experiments.Table, error) {
		time.Sleep(pause)
		if err != nil {
			return nil, err
		}
		tab := &experiments.Table{ID: name, Columns: []string{"table"}}
		tab.AddRow(name)
		return tab, nil
	}}
}

// TestFirstFailingTableInRunnerOrder drives a runner list whose middle table
// fails after the one behind it has failed and before the ones ahead of it
// finish: the tables ahead are printed, then the middle one's error, and the
// command exits 1. Nothing after the failure is printed.
func TestFirstFailingTableInRunnerOrder(t *testing.T) {
	sel := []runner{
		fixed("first", 30*time.Millisecond, nil),
		fixed("second", 20*time.Millisecond, nil),
		fixed("middle", 10*time.Millisecond, errors.New("boom")),
		fixed("later", 0, errors.New("later boom")),
		fixed("last", 0, nil),
	}
	var stdout, stderr bytes.Buffer
	if code := drive(sel, options{csv: true}, &stdout, &stderr); code != 1 {
		t.Errorf("exit %d, want 1", code)
	}
	if got, want := stdout.String(), "table\nfirst\ntable\nsecond\n"; got != want {
		t.Errorf("stdout %q, want %q", got, want)
	}
	if got, want := stderr.String(), "experiments: middle: boom\n"; got != want {
		t.Errorf("stderr %q, want %q", got, want)
	}
}

// failAfter accepts k bytes, then fails every write.
type failAfter struct{ k int }

func (w *failAfter) Write(p []byte) (int, error) {
	if len(p) <= w.k {
		w.k -= len(p)
		return len(p), nil
	}
	n := w.k
	w.k = 0
	return n, errors.New("disk full")
}

// TestWriteErrorsExit1 makes the command's outputs fail: stdout after a few
// bytes, as aligned text and as CSV, and an -out file that is /dev/full. Each
// is `experiments: fig4: ...` and exit 1, not a truncated table and exit 0.
func TestWriteErrorsExit1(t *testing.T) {
	for _, args := range [][]string{{"-run", "fig4", "-quick"}, {"-run", "fig4", "-quick", "-csv"}} {
		var stderr bytes.Buffer
		if code := run(args, &failAfter{k: 10}, &stderr); code != 1 || !strings.HasPrefix(stderr.String(), "experiments: fig4: ") {
			t.Errorf("%v with stdout failing: exit %d, stderr %q", args, code, stderr.String())
		}
	}
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full to fail an -out file with")
	}
	dir := t.TempDir()
	if err := os.Symlink("/dev/full", filepath.Join(dir, "fig4.csv")); err != nil {
		t.Fatal(err)
	}
	code, _, stderr := invoke("-run", "fig4", "-quick", "-csv", "-out", dir)
	if code != 1 || !strings.HasPrefix(stderr, "experiments: fig4: ") {
		t.Errorf("-out file on /dev/full: exit %d, stderr %q", code, stderr)
	}
}

// TestReportsAreNumberedPerTable runs -reports on the serial path: table1's
// reports are table1-001.json onwards with no gap, one per engine run, and a
// report that cannot be written is the table's error and exit 1.
func TestReportsAreNumberedPerTable(t *testing.T) {
	dir := t.TempDir()
	if code, _, stderr := invoke("-run", "table1", "-quick", "-reports", dir); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no reports written (%v)", err)
	}
	for i, f := range files {
		if want := fmt.Sprintf("table1-%03d.json", i+1); filepath.Base(f) != want {
			t.Fatalf("report %d is %s, want %s", i+1, filepath.Base(f), want)
		}
	}

	blocked := t.TempDir()
	if err := os.Mkdir(filepath.Join(blocked, "table1-002.json"), 0o755); err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := invoke("-run", "table1", "-quick", "-reports", blocked)
	if code != 1 || stdout != "" || !strings.HasPrefix(stderr, "experiments: table1: ") {
		t.Errorf("unwritable report: exit %d, stdout %q, stderr %q", code, stdout, stderr)
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
