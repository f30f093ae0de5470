package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/debug"
	"syscall"
	"time"
)

// harness is one invocation of the benchmark: where the checkout is, where
// scratch files go, and how long to measure.
type harness struct {
	root    string  // checkout root (holds cmd/, internal/, results/)
	tmp     string  // scratch dir, removed on exit
	seed    int64   //
	smoke   bool    // 1/50 sizes, one iteration, sweep as -quick
	seconds float64 // measure this long per workload; 0 = the workload's fixed count
	log     io.Writer
}

// expectedSim is one workload's seed-1 pin of the simulated metrics
// (expected.json).
type expectedSim struct {
	WorstDelay  int `json:"sim_worst_delay_slots"`
	WorstBuffer int `json:"sim_worst_buffer_pkts"`
	Missing     int `json:"sim_missing_pkts"`
}

// workloadResult is everything one workload's run reports.
type workloadResult struct {
	Name      string           `json:"name"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Failures  []string         `json:"failures,omitempty"`
	EndToEnd  map[string]value `json:"end_to_end,omitempty"`
	PerLayer  map[string]value `json:"per_layer,omitempty"`

	// first is the first successful iteration: what the cross-workload and
	// CLI-versus-pipeline checks compare against.
	first *iteration
}

// record counts one attempted operation — a child run or a cross-check —
// and, when it broke any rule, one failure naming the workload, the
// iteration and each violated bound.
func (r *workloadResult) record(iter int, violations ...string) {
	r.Attempted++
	if len(violations) > 0 {
		r.Failed++
	}
	for _, v := range violations {
		r.Failures = append(r.Failures, fmt.Sprintf("%s iteration %d: %s", r.Name, iter, v))
	}
}

// childRun is one finished (or killed) child process.
type childRun struct {
	wallMs, cpuMs, rssMB float64
	stdout, stderr       []byte
	err                  error // non-nil on spawn failure, non-zero exit or timeout
}

// runChild runs one CLI to completion in dir, closed loop: the caller
// blocks until it exits. A child that outlives the deadline is killed and
// reported as an error, never a panic.
func runChild(bin, dir string, deadline time.Duration, args ...string) childRun {
	forgetOwnPeak()
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Dir = dir
	cmd.WaitDelay = time.Second
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	start := time.Now()
	err := cmd.Run()
	c := childRun{wallMs: msSince(start), stdout: out.Bytes(), stderr: errb.Bytes()}
	if ps := cmd.ProcessState; ps != nil {
		c.cpuMs = float64(ps.UserTime()+ps.SystemTime()) / float64(time.Millisecond)
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			c.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
		}
	}
	switch {
	case ctx.Err() != nil:
		c.err = fmt.Errorf("killed after the %v deadline", deadline.Round(time.Millisecond))
	case err != nil:
		c.err = fmt.Errorf("%v: %s", err, bytes.TrimSpace(errb.Bytes()))
	}
	return c
}

// forgetOwnPeak keeps the harness's own memory out of the child's
// ru_maxrss. Go starts children with vfork, so the child execs out of the
// harness's address space, and Linux seeds the child's ru_maxrss with the
// peak RSS of the address space it left. Returning freed memory and
// resetting this process's peak (clear_refs "5", Linux ≥ 4.0) lowers that
// floor to the harness's current few MB, far below any workload's child.
func forgetOwnPeak() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort: absent off Linux
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

// prepared is a workload ready to iterate: binaries built, inputs on disk,
// one warm-up iteration done.
type prepared struct {
	w        *workload
	in       *inputs
	dir      string // child working directory holding the inputs
	bin      string
	args     []string
	deadline time.Duration // per-iteration: 10× the warm-up time
	setupS   float64
}

// setup builds the two CLIs (the Go build cache is warm after the first
// build of a checkout), writes the generated inputs, and runs one untimed
// warm-up iteration. Its duration is the setup_s metric.
func (h *harness) setup(w *workload) (*prepared, error) {
	start := time.Now()
	dir, err := os.MkdirTemp(h.tmp, w.name+"-")
	if err != nil {
		return nil, err
	}
	binDir := filepath.Join(dir, "bin")
	build := exec.Command("go", "build", "-o", binDir+string(filepath.Separator), "./cmd/streamsim", "./cmd/experiments")
	build.Dir = h.root
	if out, err := build.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("building the CLIs: %v\n%s", err, out)
	}
	p := &prepared{w: w, in: inputsFor(w, h.seed, h.smoke), dir: dir}
	if w.sweep {
		p.bin = filepath.Join(binDir, "experiments")
		p.args = []string{"-run", "all", "-csv", "-out", sweepDir}
		if h.smoke {
			p.args = append(p.args, "-quick")
		}
	} else {
		p.bin = filepath.Join(binDir, "streamsim")
		p.args = []string{"-scenario", "run.scn"}
		if err := os.WriteFile(filepath.Join(dir, "run.scn"), []byte(p.in.scenario), 0o644); err != nil {
			return nil, err
		}
		for name, content := range p.in.files {
			if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
				return nil, err
			}
		}
	}
	warm := runChild(p.bin, dir, 3*time.Minute, p.args...)
	if warm.err != nil {
		return nil, fmt.Errorf("%s warm-up: %v", w.name, warm.err)
	}
	p.deadline = time.Duration(10 * warm.wallMs * float64(time.Millisecond))
	if p.deadline < 2*time.Second {
		p.deadline = 2 * time.Second
	}
	p.setupS = time.Since(start).Seconds()
	return p, nil
}

// iterate runs one child and collects what the checks need from it.
func (p *prepared) iterate() (childRun, *iteration) {
	// Stale outputs must not satisfy this iteration's checks.
	for _, name := range outputFiles {
		os.RemoveAll(filepath.Join(p.dir, name))
	}
	c := runChild(p.bin, p.dir, p.deadline, p.args...)
	it := &iteration{dir: p.dir, stdout: c.stdout, stderr: c.stderr, sim: parseSim(c.stdout)}
	if data, err := os.ReadFile(filepath.Join(p.dir, reportFile)); err == nil {
		it.report = data
	}
	return c, it
}

// timed is the end-to-end pass: setupReps set-ups (their median is
// setup_s), then closed-loop iterations of the real CLI for the harness's
// duration or the workload's fixed count, each checked for correctness.
func (h *harness) timed(w *workload, setupReps int, seconds float64) (*workloadResult, *prepared, error) {
	res := &workloadResult{Name: w.name, EndToEnd: map[string]value{}}
	var p *prepared
	var setups []float64
	for i := 0; i < setupReps; i++ {
		next, err := h.setup(w)
		if err != nil {
			return nil, nil, err
		}
		if p != nil {
			os.RemoveAll(p.dir)
		}
		p = next
		setups = append(setups, p.setupS)
	}

	var wall, cpu, rss []float64
	var first *iteration
	start := time.Now()
	for i := 0; ; i++ {
		if seconds > 0 {
			if i >= 1 && time.Since(start).Seconds() >= seconds {
				break
			}
		} else if i >= w.iters || h.smoke && i >= 1 {
			break
		}
		c, it := p.iterate()
		if c.err != nil {
			res.record(i, c.err.Error())
			continue
		}
		wall, cpu, rss = append(wall, c.wallMs), append(cpu, c.cpuMs), append(rss, c.rssMB)
		if first == nil {
			first = it
		}
		res.record(i, h.check(p, first, it)...)
	}
	if first == nil {
		return res, p, errors.New(w.name + ": no iteration succeeded: " + fmt.Sprint(res.Failures))
	}
	res.first = first

	e := res.EndToEnd
	e["setup_s"] = statOf(setups, "s")
	e["wall_ms_p50"] = statOf(wall, "ms")
	e["cpu_ms_p50"] = statOf(cpu, "ms")
	e["peak_rss_mb"] = statOf(rss, "MB")
	if !w.sweep {
		s := first.sim
		e["node_slots_per_s"] = value{Unit: "1/s", Spread: e["wall_ms_p50"].Spread,
			Value: float64(s.receivers+1) * float64(s.slotsUsed) / (median(wall) / 1000)}
		e["sim_worst_delay_slots"] = value{Value: float64(s.worstDelay), Unit: "slots"}
		e["sim_worst_buffer_pkts"] = value{Value: float64(s.worstBuffer), Unit: "pkts"}
		e["sim_missing_pkts"] = value{Value: float64(s.missing), Unit: "pkts"}
		res.record(0, h.checkPins(w, s)...)
	}
	res.PerLayer = map[string]value{
		"cli.wall_ms_p90": {Value: quantile(wall, 0.9), Unit: "ms"},
		"cli.samples":     {Value: float64(len(wall)), Unit: "count"},
	}
	return res, p, nil
}

// check applies every correctness rule to one iteration: determinism
// against the first iteration, then the workload's own bounds.
func (h *harness) check(p *prepared, first, it *iteration) []string {
	var bad []string
	if !bytes.Equal(first.stdout, it.stdout) {
		bad = append(bad, "stdout differs from iteration 0 (non-deterministic output)")
	}
	if !bytes.Equal(first.report, it.report) {
		bad = append(bad, "report JSON differs from iteration 0 (non-deterministic output)")
	}
	if p.w.sweep {
		return append(bad, verifySweep(h.root, filepath.Join(p.dir, sweepDir), h.smoke)...)
	}
	return append(bad, p.w.verify(p.in, it)...)
}

// checkPins holds seed 1 to the sim_* values recorded in expected.json: a
// change meant only to speed the simulator must leave them identical.
func (h *harness) checkPins(w *workload, s simStats) []string {
	want, ok := expectedPins[w.name]
	if h.seed != 1 || h.smoke || !ok {
		return nil
	}
	got := expectedSim{WorstDelay: s.worstDelay, WorstBuffer: s.worstBuffer, Missing: s.missing}
	if got != want {
		return []string{fmt.Sprintf("sim_* = %+v, expected.json pins %+v for seed 1", got, want)}
	}
	return nil
}

// checkAgainstSequential runs the sequential twin of dense-sharded once:
// the sharded driver must have printed the same bytes.
func (h *harness) checkAgainstSequential(p *prepared, sharded []byte) []string {
	seq := inputsFor(lookupWorkload("dense-long"), h.seed, h.smoke)
	if err := os.WriteFile(filepath.Join(p.dir, "seq.scn"), []byte(seq.scenario), 0o644); err != nil {
		return []string{err.Error()}
	}
	c := runChild(p.bin, p.dir, p.deadline, "-scenario", "seq.scn")
	if c.err != nil {
		return []string{"sequential reference run: " + c.err.Error()}
	}
	if !bytes.Equal(c.stdout, sharded) {
		return []string{"stdout is not byte-identical to the sequential dense-long run"}
	}
	return nil
}
