// Command bench is the streamcast benchmark: scenario text in, report
// bytes out, on the real CLIs. It builds cmd/streamsim and cmd/experiments,
// generates every input from -seed, drives the binaries one child process
// at a time (closed loop, one client), checks every output, and prints
// every metric by name with its unit. A separate traced pass replays the
// same pipeline in-process with a span around each call into a layer.
// See README.md in this directory for the metric and workload glossary.
//
//	bash bench/run.sh -seed 1 -out run.json           every workload, both passes
//	bash bench/run.sh -workload dense-long -seed 1 -seconds 12 -trace 0
//	bash bench/run.sh -compare base.json candidate.json
//	bash bench/run.sh -smoke                          1/50 sizes, one iteration each
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
)

//go:embed expected.json
var expectedJSON []byte

// expectedPins are the seed-1 values of the simulated metrics, by workload.
var expectedPins = func() map[string]expectedSim {
	pins := map[string]expectedSim{}
	if err := json.Unmarshal(expectedJSON, &pins); err != nil {
		panic("bench: expected.json: " + err.Error())
	}
	return pins
}()

// machine records where a run's numbers were taken.
type machine struct {
	NProc     int    `json:"nproc"`
	CPUModel  string `json:"cpu_model"`
	GoVersion string `json:"go_version"`
}

func thisMachine() machine {
	m := machine{NProc: runtime.NumCPU(), GoVersion: runtime.Version()}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		if f := regexp.MustCompile(`(?m)^model name\s*:\s*(.+)$`).FindSubmatch(data); f != nil {
			m.CPUModel = string(f[1])
		}
	}
	return m
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main, testable: it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "", "run only this workload and print the contract's result line last")
		seed     = fs.Int64("seed", 1, "every generated input derives from this seed")
		seconds  = fs.Float64("seconds", 0, "measure this long per workload (0 = each workload's fixed iteration count)")
		trace    = fs.Int("trace", 0, "with -workload: 0 = end-to-end pass, 1 = traced per-layer pass")
		out      = fs.String("out", "", "write every metric of the run to this JSON file")
		traceOut = fs.String("trace-out", "", "write the recorded spans to this JSON file")
		cmp      = fs.Bool("compare", false, "compare two -out files: bench -compare base.json candidate.json")
		smoke    = fs.Bool("smoke", false, "1/50 sizes, one iteration per workload, sweep as -quick")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *cmp {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two files: base.json candidate.json")
			return 2
		}
		return runCompare(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}

	fail := func(err error) int {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	root, err := findRoot()
	if err != nil {
		return fail(err)
	}
	scratch := filepath.Join(root, ".bench_build", "tmp")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return fail(err)
	}
	tmp, err := os.MkdirTemp(scratch, "run-")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(tmp)
	h := &harness{root: root, tmp: tmp, seed: *seed, smoke: *smoke, seconds: *seconds, log: stdout}

	rf := &runFile{Seed: *seed, Smoke: *smoke, Machine: thisMachine()}
	var spans []span
	if *name != "" {
		w := lookupWorkload(*name)
		if w == nil {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		res, sp, err := h.runWorkload(w, *trace == 0, *trace != 0)
		if err != nil {
			return fail(err)
		}
		rf.Workloads, spans = append(rf.Workloads, res), sp
	} else {
		fmt.Fprintf(stdout, "machine: %d cpus, %s, %s; seed %d\n\n", rf.Machine.NProc, rf.Machine.CPUModel, rf.Machine.GoVersion, *seed)
		for _, w := range workloads {
			res, sp, err := h.runWorkload(w, true, true)
			if err != nil {
				return fail(err)
			}
			rf.Workloads, spans = append(rf.Workloads, res), append(spans, sp...)
		}
		wall := func(name string) float64 { return rf.workload(name).EndToEnd["wall_ms_p50"].Value }
		fmt.Fprintf(stdout, "two-worker number: dense-sharded wall_ms_p50 / dense-long wall_ms_p50 = %.3f\n", wall("dense-sharded")/wall("dense-long"))
	}

	failed := false
	for _, res := range rf.Workloads {
		for _, f := range res.Failures {
			fmt.Fprintf(stderr, "FAILED CHECK: %s\n", f)
			failed = true
		}
	}
	if *out != "" {
		if err := writeJSON(*out, rf); err != nil {
			return fail(err)
		}
	}
	if *traceOut != "" {
		if err := writeSpans(*traceOut, spans); err != nil {
			return fail(err)
		}
	}
	if *name != "" {
		// The contract reads failures off the result line, not the exit code.
		printContractLine(stdout, rf.Workloads[0], *trace != 0)
		return 0
	}
	if failed {
		return 1
	}
	return 0
}

// runWorkload runs one workload's end-to-end pass, its traced pass, or
// both, prints its metrics, and returns them. A traced-only run still
// makes a short end-to-end pass first: the cli.* layer metrics and the
// CLI-versus-pipeline checks need real child runs.
func (h *harness) runWorkload(w *workload, endToEndPass, tracedPass bool) (*workloadResult, []span, error) {
	setupReps, seconds := 3, h.seconds
	if !endToEndPass {
		setupReps, seconds = 1, h.seconds/3
	}
	if h.smoke {
		setupReps = 1
	}
	res, p, err := h.timed(w, setupReps, seconds)
	if p != nil {
		defer os.RemoveAll(p.dir)
	}
	if err != nil {
		return nil, nil, err
	}
	if w.name == "dense-sharded" {
		res.record(0, h.checkAgainstSequential(p, res.first.stdout)...)
	}
	fmt.Fprintf(h.log, "== %s ==\n", w.name)
	var spans []span
	if tracedPass && w.sweep {
		h.tracedSweep(p, res)
	} else if tracedPass {
		if spans, err = h.traced(p, res); err != nil {
			return nil, nil, err
		}
	}
	res.EndToEnd["failed_share"] = value{Value: float64(res.Failed) / float64(res.Attempted), Unit: "share"}
	fmt.Fprintf(h.log, "%d attempted, %d failed\n", res.Attempted, res.Failed)
	printMetrics(h.log, "end to end (child process, tracing off)", endToEnd, res.EndToEnd)
	printMetrics(h.log, "per layer", perLayer, res.PerLayer)
	fmt.Fprintln(h.log)
	return res, spans, nil
}

// printContractLine prints the benchmark contract's result object as the
// last line of standard output: every end_to_end metric of BENCHMARK.json
// for an end-to-end run, every per_layer metric for a traced run (a layer
// the workload does not exercise reports 0).
func printContractLine(w io.Writer, res *workloadResult, traced bool) {
	metrics := map[string]value{}
	if traced {
		for _, d := range perLayer {
			metrics[d.name] = value{Value: res.PerLayer[d.name].Value, Unit: d.unit}
		}
		for _, d := range endToEnd[contractEndToEnd:] {
			metrics[d.name] = value{Value: res.EndToEnd[d.name].Value, Unit: d.unit}
		}
	} else {
		for _, d := range endToEnd[:contractEndToEnd] {
			metrics[d.name] = value{Value: res.EndToEnd[d.name].Value, Unit: d.unit}
		}
	}
	line, _ := json.Marshal(map[string]interface{}{
		"correct":   res.Failed == 0,
		"attempted": res.Attempted,
		"failed":    res.Failed,
		"metrics":   metrics,
	})
	fmt.Fprintf(w, "%s\n", line)
}

func runCompare(basePath, candPath string, stdout, stderr io.Writer) int {
	base, err := readRunFile(basePath)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	cand, err := readRunFile(candPath)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	if compare(stdout, base, cand) {
		return 1
	}
	return 0
}

func writeJSON(path string, v interface{}) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// findRoot walks up from the working directory to the checkout root: the
// directory whose go.mod declares module streamcast.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(data), "module streamcast\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside a streamcast checkout (no go.mod declaring module streamcast above the working directory)")
		}
		dir = parent
	}
}
