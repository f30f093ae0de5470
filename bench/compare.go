package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// runFile is what a full run writes to -out and what -compare reads.
type runFile struct {
	Seed      int64             `json:"seed"`
	Smoke     bool              `json:"smoke,omitempty"`
	Machine   machine           `json:"machine"`
	Workloads []*workloadResult `json:"workloads"`
}

func readRunFile(path string) (*runFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf runFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

func (rf *runFile) workload(name string) *workloadResult {
	for _, w := range rf.Workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// Verdicts of one workload × metric comparison.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// verdict compares a candidate value against a base under the metric's
// rule. Exact metrics (simulated values, failed_share) must be identical.
// Bounded metrics may worsen by at most the bound as a share of the base;
// when either side's own spread is wider than the bound the pair cannot
// show a change of that size either way, and is unresolved rather than ok.
func verdict(d metricDef, base, cand value) (ratio float64, v string) {
	if base.Value != 0 {
		ratio = cand.Value / base.Value
	}
	if d.exact {
		if cand.Value == base.Value {
			return ratio, verdictOK
		}
		return ratio, verdictRegressed
	}
	if base.Spread > d.bound || cand.Spread > d.bound {
		return ratio, verdictUnresolved
	}
	worse := ratio - 1
	if d.higher {
		worse = 1 - ratio
	}
	if worse > d.bound {
		return ratio, verdictRegressed
	}
	return ratio, verdictOK
}

// compare prints one row per workload × end-to-end metric present in both
// files and reports whether any regressed.
func compare(w io.Writer, base, cand *runFile) (regressed bool) {
	if base.Seed != cand.Seed {
		fmt.Fprintf(w, "note: seeds differ (%d vs %d); inputs differ, so exact metrics may too\n", base.Seed, cand.Seed)
	}
	fmt.Fprintf(w, "%-14s %-22s %14s %14s %18s  %s\n", "workload", "metric", "base", "candidate", "ratio (cand/base)", "verdict")
	for _, bw := range base.Workloads {
		cw := cand.workload(bw.Name)
		if cw == nil {
			fmt.Fprintf(w, "%-14s missing from the candidate file\n", bw.Name)
			regressed = true
			continue
		}
		for _, d := range endToEnd {
			b, okB := bw.EndToEnd[d.name]
			c, okC := cw.EndToEnd[d.name]
			if !okB || !okC {
				continue
			}
			ratio, v := verdict(d, b, c)
			fmt.Fprintf(w, "%-14s %-22s %14s %14s %18.4f  %s\n", bw.Name, d.name, formatNumber(b.Value), formatNumber(c.Value), ratio, v)
			if v == verdictRegressed {
				regressed = true
			}
		}
	}
	return regressed
}
