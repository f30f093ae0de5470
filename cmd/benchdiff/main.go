// Command benchdiff snapshots `go test -bench` output as JSON and compares
// two snapshots for regressions.
//
// Snapshot mode (reads bench output from stdin):
//
//	go test -bench . -benchmem -run XXX . | go run ./cmd/benchdiff -write BENCH_2026-08-05.json
//
// Compare mode (exits 1 when B/op or allocs/op regressed past -threshold or
// ns/op past -time-threshold; rows matching -memory-only are held to B/op and
// allocs/op alone):
//
//	go run ./cmd/benchdiff -old BENCH_old.json -new BENCH_new.json -threshold 0.2
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Benchmark is one parsed benchmark result line.
type Benchmark struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	// Metrics holds custom b.ReportMetric values by unit, e.g.
	// "delay_d2_N2000" -> 18.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Snapshot is a dated set of benchmark results.
type Snapshot struct {
	Date       string      `json:"date"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// parseBench extracts benchmark result lines from `go test -bench` output.
// Non-benchmark lines (PASS, custom logs) are ignored; a `pkg:` header starts
// the output of the next package run. A name measured more than once in one
// run (-count) keeps its fastest result: on a shared host the least disturbed
// measurement is the repeatable one. A name measured again in a later run
// takes that run's value, so a sweep followed by the gate's reruns of a few
// rows (make bench-json) records those rows as the gate measures them.
func parseBench(r io.Reader) ([]Benchmark, error) {
	var out []Benchmark
	at := make(map[string]int)    // name -> index in out
	runOf := make(map[string]int) // name -> the run out[at[name]] came from
	run := 0
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "pkg:") {
			run++
			continue
		}
		f := strings.Fields(sc.Text())
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		iters, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			continue
		}
		b := Benchmark{Name: trimProcs(f[0]), Iterations: iters}
		// The rest of the line is (value, unit) pairs.
		ok := true
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				ok = false
				break
			}
			switch unit := f[i+1]; unit {
			case "ns/op":
				b.NsPerOp = v
			case "B/op":
				b.BytesPerOp = v
			case "allocs/op":
				b.AllocsPerOp = v
			default:
				if b.Metrics == nil {
					b.Metrics = make(map[string]float64)
				}
				b.Metrics[unit] = v
			}
		}
		if !ok || b.NsPerOp <= 0 {
			continue
		}
		if i, seen := at[b.Name]; !seen {
			at[b.Name] = len(out)
			out = append(out, b)
		} else if runOf[b.Name] < run || b.NsPerOp < out[i].NsPerOp {
			out[i] = b
		}
		runOf[b.Name] = run
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// trimProcs removes the trailing -<GOMAXPROCS> suffix of a benchmark name,
// so snapshots taken at different parallelism settings stay comparable.
func trimProcs(name string) string {
	i := strings.LastIndex(name, "-")
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

func readSnapshot(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return &s, nil
}

// regression describes one metric that moved past the threshold.
type regression struct {
	name   string
	metric string
	old    float64
	new    float64
}

// compare returns the regressions and improvements between two snapshots:
// B/op and allocs/op changes beyond the fractional threshold, ns/op changes
// beyond timeThreshold — what a benchmark allocates repeats exactly, how long
// it takes on a shared host does not. A row whose name matches memoryOnly (nil
// matches none) is not compared on ns/op at all: its run time is too long to
// repeat and too noisy to gate on. missing counts the rows of old that cur
// lacks, which a narrow -bench filter skips.
func compare(old, cur *Snapshot, threshold, timeThreshold float64, memoryOnly *regexp.Regexp) (regs, imps []regression, missing int) {
	curBy := make(map[string]Benchmark, len(cur.Benchmarks))
	for _, b := range cur.Benchmarks {
		curBy[b.Name] = b
	}
	for _, ob := range old.Benchmarks {
		nb, ok := curBy[ob.Name]
		if !ok {
			missing++
			continue
		}
		check := func(metric string, ov, nv, limit float64) {
			if ov <= 0 {
				return
			}
			switch delta := (nv - ov) / ov; {
			case delta > limit:
				regs = append(regs, regression{ob.Name, metric, ov, nv})
			case delta < -limit:
				imps = append(imps, regression{ob.Name, metric, ov, nv})
			}
		}
		if memoryOnly == nil || !memoryOnly.MatchString(ob.Name) {
			check("ns/op", ob.NsPerOp, nb.NsPerOp, timeThreshold)
		}
		check("B/op", ob.BytesPerOp, nb.BytesPerOp, threshold)
		check("allocs/op", ob.AllocsPerOp, nb.AllocsPerOp, threshold)
	}
	return regs, imps, missing
}

func main() {
	write := flag.String("write", "", "parse bench output from stdin and write a JSON snapshot to this file")
	oldPath := flag.String("old", "", "baseline snapshot for comparison")
	newPath := flag.String("new", "", "candidate snapshot for comparison")
	threshold := flag.Float64("threshold", 0.20, "fractional regression threshold for B/op and allocs/op, and for ns/op unless -time-threshold is set")
	timeThreshold := flag.Float64("time-threshold", 0, "fractional regression threshold for ns/op (0 = -threshold)")
	memoryOnly := flag.String("memory-only", "", "regexp of benchmark names compared on B/op and allocs/op only, not ns/op")
	flag.Parse()

	switch {
	case *write != "":
		benches, err := parseBench(os.Stdin)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			os.Exit(2)
		}
		if len(benches) == 0 {
			fmt.Fprintln(os.Stderr, "benchdiff: no benchmark lines on stdin")
			os.Exit(2)
		}
		snap := Snapshot{Date: time.Now().Format("2006-01-02"), Benchmarks: benches}
		data, err := json.MarshalIndent(&snap, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			os.Exit(2)
		}
		if err := os.WriteFile(*write, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			os.Exit(2)
		}
		fmt.Printf("benchdiff: wrote %d benchmarks to %s\n", len(benches), *write)
	case *oldPath != "" && *newPath != "":
		old, err := readSnapshot(*oldPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			os.Exit(2)
		}
		cur, err := readSnapshot(*newPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			os.Exit(2)
		}
		var memRows *regexp.Regexp
		if *memoryOnly != "" {
			if memRows, err = regexp.Compile(*memoryOnly); err != nil {
				fmt.Fprintln(os.Stderr, "benchdiff: -memory-only:", err)
				os.Exit(2)
			}
		}
		if *timeThreshold == 0 {
			*timeThreshold = *threshold
		}
		regs, imps, missing := compare(old, cur, *threshold, *timeThreshold, memRows)
		for _, r := range imps {
			fmt.Printf("improved  %-60s %-10s %14.1f -> %14.1f (%+.1f%%)\n",
				r.name, r.metric, r.old, r.new, 100*(r.new-r.old)/r.old)
		}
		if missing > 0 {
			fmt.Printf("%d rows missing from %s\n", missing, *newPath)
		}
		for _, r := range regs {
			fmt.Printf("REGRESSED %-60s %-10s %14.1f -> %14.1f (%+.1f%%)\n",
				r.name, r.metric, r.old, r.new, 100*(r.new-r.old)/r.old)
		}
		if len(regs) > 0 {
			os.Exit(1)
		}
		fmt.Printf("benchdiff: no regressions past %.0f%% (ns/op: %.0f%%; %d benchmarks compared)\n",
			*threshold*100, *timeThreshold*100, len(old.Benchmarks)-missing)
	default:
		flag.Usage()
		os.Exit(2)
	}
}
