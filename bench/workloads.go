package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"

	"streamcast/internal/obs"
)

// tableIDs are the experiment ids `experiments -run all` regenerates, in its
// order. Every id but "schemes" has a committed copy under results/.
var tableIDs = []string{
	"schemes", "fig4", "table1", "cluster", "bounds", "hcavg", "degree",
	"churn", "baselines", "livemodes", "delaydist", "churncmp",
	"churnimpact", "unstructured", "midstream", "mdc", "faults", "randreg",
}

// Output file names, relative to the child's working directory.
const (
	reportFile  = "report.json"
	metricsFile = "metrics.prom"
	traceFile   = "events.jsonl"
	planFile    = "faults.plan"
	sweepDir    = "tables"
)

// outputFiles is everything a child may write; removed before each run.
var outputFiles = []string{reportFile, metricsFile, traceFile, sweepDir}

// workload is one named set of inputs. The benchmark contract and
// bench/README.md record why each exists; `why` is the one-line form.
type workload struct {
	name string
	why  string
	// iters is the fixed iteration count of a full run (no -seconds).
	iters int
	// sweep marks the cmd/experiments workload; all others drive streamsim.
	sweep bool
	// stream keys the seeded input generator: workloads sharing a stream
	// draw the same N and seeds (dense-sharded is dense-long plus one line).
	stream string
	gen    func(rng *rand.Rand, smoke bool) *inputs
	verify func(in *inputs, it *iteration) []string
}

// inputs is everything a workload's iterations consume, generated from the
// seed alone: the scenario text the CLI receives, its side files, and the
// parameters the correctness checks need.
type inputs struct {
	scenario string
	files    map[string]string
	n, d     int
}

// iteration is what one child run left behind, as the checks see it.
type iteration struct {
	dir            string
	stdout, stderr []byte
	report         []byte // report.json bytes, nil when the workload writes none
	sim            simStats
}

// simStats are the simulated quantities parsed from the CLI's text report.
// complete is false when a required line was absent.
type simStats struct {
	receivers, slotsUsed    int
	worstDelay, worstBuffer int
	missing                 int // 0 when the run printed no "faulted:" line
	complete                bool
}

var workloads = []*workload{
	{
		name: "dense-long", iters: 30, stream: "dense",
		why:    "multitree d=4 N~31000 over 625 slots, sequential: the slot loop does most of the work, so slotsim hot-path changes show here first",
		gen:    func(r *rand.Rand, smoke bool) *inputs { return genDense(r, smoke, false) },
		verify: verifyDense,
	},
	{
		name: "dense-sharded", iters: 20, stream: "dense",
		why:    "same text plus 'parallel workers=2': the sharded driver on the same input, stdout byte-identical to dense-long",
		gen:    func(r *rand.Rand, smoke bool) *inputs { return genDense(r, smoke, true) },
		verify: verifyDense,
	},
	{
		name: "observed", iters: 40, stream: "observed",
		why:    "multitree d=3 N~8000 with metrics, JSONL trace and report outputs: obs callbacks and serialization dominate, the engine fast path is bypassed",
		gen:    genObserved,
		verify: verifyObserved,
	},
	{
		name: "churn-faulted", iters: 22, stream: "churn",
		why:    "multitree d=3 N~10000 under poisson live churn and 2% loss: membership writes beside stream reads, per-epoch schedules, injector and SLO report",
		gen:    genChurn,
		verify: verifyChurn,
	},
	{
		name: "cube-check", iters: 26, stream: "cube",
		why:    "hypercube N=32767 with the static check over a ~20-slot window: schedule generation, compile, check.Static and Neighbors dominate a short slot loop",
		gen:    genCube,
		verify: verifyCube,
	},
	{
		name: "sweep", iters: 6, sweep: true, stream: "sweep",
		why:    "experiments -run all: hundreds of small runs through the spec registry, dominated by gossip/randreg schedules that never compile",
		gen:    func(*rand.Rand, bool) *inputs { return &inputs{} },
		verify: nil, // checked against results/ by the harness, which knows the repo root
	},
}

func lookupWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// inputsFor generates a workload's inputs from the run seed. The generator
// stream is keyed by (seed, workload.stream) so workloads are independent of
// each other and of the order they run in.
func inputsFor(w *workload, seed int64, smoke bool) *inputs {
	h := fnv.New64a()
	h.Write([]byte(w.stream))
	rng := rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
	return w.gen(rng, smoke)
}

// jitter draws N within ±1% of base, so no change can be tuned to one N
// while time and memory, which scale with N, stay within a percent of each
// other across seeds. Smoke runs use 1/50 of the size.
func jitter(rng *rand.Rand, base int, smoke bool) int {
	span := base / 100
	n := base - span + rng.Intn(2*span+1)
	if smoke {
		n /= 50
	}
	return n
}

func genDense(rng *rand.Rand, smoke, sharded bool) *inputs {
	// 31000, not a rounder 30000: between N≈29800 and N≈30200 the Go
	// collector's pacing flips run to run between two modes (peak RSS 250 vs
	// 460 MB, CPU a fifth apart), which would make every metric bimodal
	// across seeds. From 30400 up to at least 31400 the low mode is stable.
	n, packets := jitter(rng, 31000, smoke), 600
	if smoke {
		packets = 12
	}
	var b strings.Builder
	fmt.Fprintf(&b, "# dense multitree: the slot loop dominates\nscheme multitree\nparam d=4 n=%d\npackets %d\n", n, packets)
	if sharded {
		b.WriteString("parallel workers=2\n")
	}
	return &inputs{scenario: b.String(), n: n, d: 4}
}

func genObserved(rng *rand.Rand, smoke bool) *inputs {
	n := jitter(rng, 8000, smoke)
	text := fmt.Sprintf("# every observability sink attached\nscheme multitree\nparam d=3 n=%d\npackets 24\nout metrics=%s trace=%s report=%s\n",
		n, metricsFile, traceFile, reportFile)
	return &inputs{scenario: text, n: n, d: 3}
}

func genChurn(rng *rand.Rand, smoke bool) *inputs {
	n := jitter(rng, 10000, smoke)
	faultSeed, churnSeed := 1+rng.Int63n(1<<31), 1+rng.Int63n(1<<31)
	plan := fmt.Sprintf("# 2%% transient loss on every link\nseed %d\nloss from=any to=any rate=0.02 slots=0..\n", faultSeed)
	text := fmt.Sprintf("# live poisson churn over background loss\nscheme multitree\nparam d=3 n=%d\npackets 200\nfaults file=%s\nchurn kind=poisson rate=1 seed=%d policy=lazy slots=20..\nout report=%s\n",
		n, planFile, churnSeed, reportFile)
	return &inputs{scenario: text, files: map[string]string{planFile: plan}, n: n, d: 3}
}

func genCube(_ *rand.Rand, smoke bool) *inputs {
	n := 1<<15 - 1 // must be 2^k−1, so the seed cannot move it
	if smoke {
		n = 1<<9 - 1
	}
	text := fmt.Sprintf("# checked hypercube chain, default window\nscheme hypercube\nparam d=1 n=%d\ncheck\n", n)
	return &inputs{scenario: text, n: n, d: 1}
}

var (
	reReceivers = regexp.MustCompile(`(?m)^receivers:\s+(\d+)`)
	reDelay     = regexp.MustCompile(`(?m)^worst delay:\s+(\d+) slots`)
	reBuffer    = regexp.MustCompile(`(?m)^worst buffer:\s+(\d+) packets`)
	reSlots     = regexp.MustCompile(`(?m)^slots used:\s+(\d+)`)
	reMissing   = regexp.MustCompile(`(?m)^faulted:.*\((\d+) packets total\)`)
	reCheckOK   = regexp.MustCompile(`(?m)^streamsim: check: .* ok \(`)
)

// parseSim reads the simulated quantities off streamsim's text report.
func parseSim(stdout []byte) simStats {
	var s simStats
	grab := func(re *regexp.Regexp, dst *int) bool {
		m := re.FindSubmatch(stdout)
		if m == nil {
			return false
		}
		*dst, _ = strconv.Atoi(string(m[1]))
		return true
	}
	s.complete = grab(reReceivers, &s.receivers)
	s.complete = grab(reDelay, &s.worstDelay) && s.complete
	s.complete = grab(reBuffer, &s.worstBuffer) && s.complete
	s.complete = grab(reSlots, &s.slotsUsed) && s.complete
	grab(reMissing, &s.missing)
	return s
}

// verifyReport is the check every streamsim workload shares: the text
// report must carry the simulated quantities the sim_* metrics are read from.
func verifyReport(it *iteration) []string {
	if !it.sim.complete {
		return []string{"text report lacks receivers / worst delay / worst buffer / slots used"}
	}
	return nil
}

// theorem2Bound is h·d with h = ⌈log_d(N(1−1/d)+1)⌉, the smallest h with
// d+d²+…+d^h ≥ N — computed here, not imported, so the check does not share
// code with the system it checks.
func theorem2Bound(n, d int) int {
	h, capacity, level := 0, 0, 1
	for capacity < n {
		level *= d
		capacity += level
		h++
	}
	return h * d
}

func verifyDense(in *inputs, it *iteration) []string {
	bad := verifyReport(it)
	if bound := theorem2Bound(in.n, in.d); it.sim.worstDelay > bound {
		bad = append(bad, fmt.Sprintf("worst delay %d exceeds the Theorem 2 bound h·d = %d", it.sim.worstDelay, bound))
	}
	if it.sim.missing != 0 {
		bad = append(bad, fmt.Sprintf("%d packets missing on a fault-free run", it.sim.missing))
	}
	if it.sim.receivers != in.n {
		bad = append(bad, fmt.Sprintf("report names %d receivers, scenario asked for %d", it.sim.receivers, in.n))
	}
	return bad
}

func verifyCube(in *inputs, it *iteration) []string {
	bad := verifyReport(it)
	k := 0
	for 1<<k-1 < in.n {
		k++
	}
	if !reCheckOK.Match(it.stderr) {
		bad = append(bad, "stderr lacks the 'check: … ok' line")
	}
	if it.sim.worstBuffer != 2 {
		bad = append(bad, fmt.Sprintf("worst buffer %d, Proposition 1 says 2", it.sim.worstBuffer))
	}
	if it.sim.worstDelay > k+1 {
		bad = append(bad, fmt.Sprintf("worst delay %d exceeds the Proposition 1 bound k+1 = %d", it.sim.worstDelay, k+1))
	}
	return bad
}

func verifyChurn(in *inputs, it *iteration) []string {
	bad := verifyReport(it)
	rep, err := obs.ReadReport(bytes.NewReader(it.report))
	if err != nil {
		return append(bad, fmt.Sprintf("report does not parse: %v", err))
	}
	c := rep.Churn
	switch {
	case c == nil:
		bad = append(bad, "report has no churn section")
	case c.Ops == 0:
		bad = append(bad, "churn.ops = 0: the churn source never fired")
	case c.SwapBound != in.d*in.d+in.d:
		bad = append(bad, fmt.Sprintf("churn.swap_bound %d, want d²+d = %d", c.SwapBound, in.d*in.d+in.d))
	case c.MaxSwaps > c.SwapBound:
		bad = append(bad, fmt.Sprintf("churn.max_swaps %d exceeds churn.swap_bound %d", c.MaxSwaps, c.SwapBound))
	}
	return bad
}

func verifyObserved(in *inputs, it *iteration) []string {
	bad := verifyReport(it)
	rep, err := obs.ReadReport(bytes.NewReader(it.report))
	if err != nil {
		return append(bad, fmt.Sprintf("report does not parse: %v", err))
	}
	a := rep.Aggregates
	if a.WorstDelaySlots != it.sim.worstDelay || a.WorstBufferPkts != it.sim.worstBuffer {
		bad = append(bad, fmt.Sprintf("report aggregates (delay %d, buffer %d) disagree with the text report (%d, %d)",
			a.WorstDelaySlots, a.WorstBufferPkts, it.sim.worstDelay, it.sim.worstBuffer))
	}
	// One slot and one end line per slot, one line per event.
	want := 2*rep.Options.Slots + a.Transmissions + a.Deliveries + a.Drops
	got, err := countLines(filepath.Join(it.dir, traceFile))
	if err != nil {
		bad = append(bad, fmt.Sprintf("JSONL trace: %v", err))
	} else if got != want {
		bad = append(bad, fmt.Sprintf("JSONL trace has %d lines, report aggregates imply %d", got, want))
	}
	if st, err := os.Stat(filepath.Join(it.dir, metricsFile)); err != nil || st.Size() == 0 {
		bad = append(bad, "Prometheus metrics file missing or empty")
	}
	return bad
}

// countLines streams the file: the trace is tens of MB, and whatever the
// harness holds raises the floor under the next child's ru_maxrss.
func countLines(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	buf, lines := make([]byte, 1<<16), 0
	for {
		n, err := f.Read(buf)
		lines += bytes.Count(buf[:n], []byte{'\n'})
		if err == io.EOF {
			return lines, nil
		}
		if err != nil {
			return 0, err
		}
	}
}

// verifySweep checks the tables one `experiments -run all -out dir` wrote:
// every committed CSV under results/ reproduced byte for byte, and
// schemes.csv (no committed copy) written and non-empty. A -quick (smoke)
// sweep produces smaller tables, so only presence is required of it.
func verifySweep(root, dir string, smoke bool) []string {
	var bad []string
	for _, id := range tableIDs {
		got, err := os.ReadFile(filepath.Join(dir, id+".csv"))
		if err != nil || len(got) == 0 {
			bad = append(bad, fmt.Sprintf("table %s.csv missing or empty", id))
			continue
		}
		if smoke || id == "schemes" {
			continue
		}
		want, err := os.ReadFile(filepath.Join(root, "results", id+".csv"))
		if err != nil {
			bad = append(bad, fmt.Sprintf("results/%s.csv: %v", id, err))
		} else if !bytes.Equal(got, want) {
			bad = append(bad, fmt.Sprintf("table %s.csv differs from the committed results/%s.csv", id, id))
		}
	}
	return bad
}
