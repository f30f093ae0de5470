package spec

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"streamcast/internal/core"
	"streamcast/internal/obs"
	"streamcast/internal/slotsim"
)

var update = flag.Bool("update", false, "rewrite testdata/scenarios/golden.txt from the current runs")

// runFingerprint executes a built run with a metrics observer attached and
// returns the schedule fingerprint plus the missing-packet total — over the
// members live at the end when membership changed mid-run, since a live
// run's id space also holds padding and departed ids.
func runFingerprint(t *testing.T, run *Run) (string, int) {
	t.Helper()
	met := obs.NewMetrics()
	opt := run.Opt
	opt.Observer = met
	res, err := slotsim.Run(run.Scheme, opt)
	if err != nil {
		t.Fatal(err)
	}
	missing := 0
	if ds, ok := run.Scheme.(core.DynamicScheme); ok {
		for _, m := range ds.Members() {
			missing += res.Missing[m.Node]
		}
	} else {
		for _, v := range res.Missing {
			missing += v
		}
	}
	return met.Fingerprint(), missing
}

// TestScenarioCorpus replays every pinned scenario in testdata/scenarios
// and compares the obs fingerprint and missing-packet total to the golden
// file. This is the `make scenarios` target: any change
// to a family builder, a default, the horizon derivation, or the fault
// wiring shows up as a fingerprint mismatch here before it can silently
// change experiments. Refresh intentionally with
// `go test ./internal/spec -run TestScenarioCorpus -update`.
func TestScenarioCorpus(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "scenarios", "*.scn"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no corpus scenarios found")
	}
	sort.Strings(paths)

	got := make(map[string]string, len(paths))
	for _, path := range paths {
		name := strings.TrimSuffix(filepath.Base(path), ".scn")
		sc, err := Load(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		run, err := Build(sc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if run.CheckOpt != nil {
			rep, err := run.Preflight()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !rep.OK() {
				t.Fatalf("%s: static check rejected the pinned scenario: %v", name, rep.Issues)
			}
		}
		fp, missing := runFingerprint(t, run)
		got[name] = fmt.Sprintf("%s missing=%d", fp, missing)
	}

	goldenPath := filepath.Join("testdata", "scenarios", "golden.txt")
	if *update {
		var b strings.Builder
		for _, path := range paths {
			name := strings.TrimSuffix(filepath.Base(path), ".scn")
			fmt.Fprintf(&b, "%s %s\n", name, got[name])
		}
		if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden file rewritten with %d entries", len(got))
		return
	}

	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	defer f.Close()
	want := make(map[string]string)
	lines := bufio.NewScanner(f)
	for lines.Scan() {
		name, rest, ok := strings.Cut(strings.TrimSpace(lines.Text()), " ")
		if ok {
			want[name] = rest
		}
	}
	if err := lines.Err(); err != nil {
		t.Fatal(err)
	}
	for name, g := range got {
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: not in golden file (run with -update)", name)
			continue
		}
		if g != w {
			t.Errorf("%s: fingerprint drift:\n got  %s\n want %s", name, g, w)
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: in golden file but has no scenario", name)
		}
	}
}

// TestCorpusScenariosCanonical keeps the pinned scenarios canonical: each
// file must byte-match its own Format output (comments aside, which the
// canonical form drops — so the check is on the reparsed scenario).
func TestCorpusScenariosCanonical(t *testing.T) {
	paths, _ := filepath.Glob(filepath.Join("testdata", "scenarios", "*.scn"))
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sc, err := Parse(string(data))
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		text := sc.Format()
		back, err := Parse(text)
		if err != nil {
			t.Errorf("%s: canonical form rejected: %v", path, err)
			continue
		}
		if back.Format() != text {
			t.Errorf("%s: format not stable", path)
		}
		// The pinned files stay in canonical directive/key order: stripping
		// comments from the file must yield exactly the canonical text.
		var stripped strings.Builder
		for _, line := range strings.Split(string(data), "\n") {
			tl := strings.TrimSpace(line)
			if tl == "" || strings.HasPrefix(tl, "#") {
				continue
			}
			stripped.WriteString(tl)
			stripped.WriteString("\n")
		}
		if stripped.String() != text {
			t.Errorf("%s: not in canonical form:\n-- file --\n%s-- canonical --\n%s", path, stripped.String(), text)
		}
	}
}
