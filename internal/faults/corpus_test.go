package faults

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
	"streamcast/internal/multitree"
	"streamcast/internal/slotsim"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/corpus/golden.txt from the current runs")

// TestChaosCorpus replays every pinned plan in testdata/corpus against a
// fixed family and compares the obs fingerprint and total missing count to
// the golden file. This is the `make chaos` target: any change to the fault
// coins, the engine's routing order, or the live churn path shows up as a
// fingerprint mismatch here before it can silently change experiments.
// Refresh intentionally with `go test ./internal/faults -run TestChaosCorpus -update`.
func TestChaosCorpus(t *testing.T) {
	const d = 3
	paths, err := filepath.Glob(filepath.Join("testdata", "corpus", "*.plan"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no corpus plans found")
	}
	sort.Strings(paths)

	got := make(map[string]string, len(paths))
	for _, path := range paths {
		name := strings.TrimSuffix(filepath.Base(path), ".plan")
		plan, err := Load(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		in, err := NewInjector(plan)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// A plan with join/leave events streams over the dynamic family and
		// its events fire live, at their slots (churn kind=plan), mirroring
		// streamsim; any other plan streams over the static trees.
		m, err := multitree.New(15, d, multitree.Greedy)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		build := static(multitree.NewScheme(m, core.PreRecorded), faultedOptions(m, d, in))
		var live *multitree.LiveScheme // the family as the last replay left it
		if len(plan.Churn) > 0 {
			build = func() (core.Scheme, slotsim.Options) {
				ls, lc := liveSource(t, 15, d, false, LiveChurnConfig{Churn: Churn{Kind: ChurnPlan, Max: len(plan.Churn)}, Plan: plan})
				live = ls
				return ls, liveOptions(ls, lc, in.Apply(slotsim.Options{Packets: core.Packet(4 * d)}))
			}
		}
		res, met := runReplayed(t, build)
		if res == nil {
			t.Fatalf("%s: run rejected", name)
		}
		// Missing packets are counted over the receivers there at the end:
		// a live run's id space also holds padding and departed ids.
		missing := 0
		if live != nil {
			for _, m := range live.Members() {
				missing += res.Missing[m.Node]
			}
		} else {
			for _, v := range res.Missing {
				missing += v
			}
		}
		got[name] = fmt.Sprintf("%s missing=%d", met.Fingerprint(), missing)
	}

	goldenPath := filepath.Join("testdata", "corpus", "golden.txt")
	if *updateGolden {
		var b strings.Builder
		for _, path := range paths {
			name := strings.TrimSuffix(filepath.Base(path), ".plan")
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
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, rest, ok := strings.Cut(strings.TrimSpace(sc.Text()), " ")
		if ok {
			want[name] = rest
		}
	}
	if err := sc.Err(); err != nil {
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
			t.Errorf("%s: in golden file but has no plan", name)
		}
	}
}

// TestCorpusPlansRoundTrip keeps the pinned plans canonical: each file must
// reparse from its own Format output.
func TestCorpusPlansRoundTrip(t *testing.T) {
	paths, _ := filepath.Glob(filepath.Join("testdata", "corpus", "*.plan"))
	for _, path := range paths {
		plan, err := Load(path)
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		back, err := ParsePlan(plan.Format())
		if err != nil {
			t.Errorf("%s: canonical form rejected: %v", path, err)
			continue
		}
		if back.Format() != plan.Format() {
			t.Errorf("%s: format not stable", path)
		}
	}
}
