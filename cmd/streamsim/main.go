// Command streamsim runs one streaming scheme through the slot-synchronous
// simulator and reports its QoS metrics: per-scheme worst and average
// playback delay, peak buffer occupancy, and neighbor counts.
//
// Every run is a spec.Scenario (see SCENARIOS.md): the flags are a thin
// translation into one, and -scenario runs one straight from a file — the
// two paths are byte-identical. -list-schemes prints the scheme registry
// with every accepted parameter; a parameter the selected scheme would
// silently ignore is a precise error, not a no-op.
//
// Examples:
//
//	streamsim -scheme multitree -n 100 -d 3 -construction greedy -mode live
//	streamsim -scheme hypercube -n 100 -d 2
//	streamsim -scheme cluster -n 20 -k 9 -D 3 -d 4 -tc 5
//	streamsim -scheme randreg -n 200 -degree 3 -randreg-mode latin -seed 7
//	streamsim -scenario run.scn
//	streamsim -list-schemes
//
// The -check flag runs the static schedule/mesh verifier (internal/check,
// see STATIC_ANALYSIS.md) as a preflight; on families without a static
// schedule (gossip, mdc, randreg) it fails fast instead of
// producing spurious verifier output:
//
//	streamsim -scheme multitree -n 100 -d 3 -check
//
// Observability (see OBSERVABILITY.md): any run can additionally
// emit Prometheus-format metrics, a JSONL event trace, and a JSON run
// report with per-slot buffer-occupancy series, and can serve net/http/pprof
// while running:
//
//	streamsim -scheme multitree -n 255 -d 3 -report-out report.json
//	streamsim -scheme hypercube -n 500 -metrics-out metrics.prom -trace-out events.jsonl
//	streamsim -scheme multitree -n 2000000 -pprof localhost:6060
//
// Scale (see PERFORMANCE.md): the struct-of-arrays engine runs N=10^5–10^6
// node scenarios directly, single-threaded:
//
//	streamsim -scheme multitree -n 1000000 -d 4
//
// Fault injection (see FAULTS.md): -faults loads a deterministic fault plan
// (crashes, transient loss, link delay, join/leave events) and replays it
// against the run; -fault-seed overrides the plan's seed. The same plan and
// seed give a bit-identical event stream on every replay. A plan that
// carries join/leave events needs -churn plan: without it the run is
// refused, never silently static:
//
//	streamsim -scheme multitree -n 100 -d 3 -faults loss.plan
//	streamsim -scheme multitree -n 100 -d 3 -faults loss.plan -fault-seed 7
//	streamsim -scheme multitree -n 100 -d 3 -faults chaos.plan -churn plan
//
// Live churn (the churn scenario directive) is the one way membership
// changes: -churn makes joins and leaves a mid-run workload — the topology
// re-plans at slot boundaries while the stream keeps flowing, each operation
// held to the paper's d²+d swap bound, and the run reports playback SLOs
// (hiccups, stalls, rebuffer ratio, time to repair):
//
//	streamsim -scheme multitree -n 100 -d 3 -churn poisson -churn-rate 0.5 -churn-seed 7
//	streamsim -scheme multitree -n 100 -d 3 -churn flash -churn-rate 2 -churn-slots 10..40 -churn-policy lazy
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof"
	"os"

	"streamcast/internal/cluster"
	"streamcast/internal/core"
	"streamcast/internal/mdc"
	"streamcast/internal/obs"
	"streamcast/internal/slotsim"
	"streamcast/internal/spec"
)

// cli holds the flag set and its value bindings so the flag→scenario
// translation is testable against the -scenario path.
type cli struct {
	fs *flag.FlagSet

	scenarioPath string
	listSchemes  bool
	pprofAddr    string

	scheme       string
	n            int
	d            int
	construction string
	mode         string
	packets      int
	slots        int
	k            int
	dd           int
	tc           int
	intra        string
	gossipDeg    int
	strategy     string
	degree       int
	rrMode       string
	seed         int64
	rounds       int
	doCheck      bool
	metricsOut   string
	traceOut     string
	reportOut    string
	faultsPath   string
	faultSeed    int64
	churnKind    string
	churnRate    float64
	churnSeed    int64
	churnMax     int
	churnPolicy  string
	churnSlots   string
}

// newCLI registers every flag on the given set. Defaults mirror the
// registry's parameter defaults; only explicitly set flags reach the
// scenario, so the registry rejects anything the scheme would ignore.
func newCLI(fs *flag.FlagSet) *cli {
	c := &cli{fs: fs}
	fs.StringVar(&c.scenarioPath, "scenario", "", "run this scenario file (SCENARIOS.md) instead of the flag scenario")
	fs.BoolVar(&c.listSchemes, "list-schemes", false, "print the scheme registry (families, parameters, capabilities) and exit")
	fs.StringVar(&c.pprofAddr, "pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) while running")

	fs.StringVar(&c.scheme, "scheme", "multitree", "scheme family (see -list-schemes)")
	fs.IntVar(&c.n, "n", 100, "number of receivers (per cluster for -scheme cluster)")
	fs.IntVar(&c.d, "d", 3, "degree / source capacity d")
	fs.StringVar(&c.construction, "construction", "greedy", "multi-tree construction: greedy | structured")
	fs.StringVar(&c.mode, "mode", "prerecorded", "prerecorded | live | prebuffered")
	fs.IntVar(&c.packets, "packets", 0, "measurement window in packets (0 = auto)")
	fs.IntVar(&c.slots, "slots", 0, "total horizon in slots (0 = auto)")
	fs.IntVar(&c.k, "k", 4, "clusters (cluster scheme)")
	fs.IntVar(&c.dd, "D", 3, "backbone degree D (cluster scheme)")
	fs.IntVar(&c.tc, "tc", 5, "inter-cluster latency Tc (cluster scheme)")
	fs.StringVar(&c.intra, "intra", "multitree", "intra-cluster scheme: multitree | hypercube (cluster scheme)")
	fs.IntVar(&c.gossipDeg, "gossip-degree", 5, "gossip neighbor-set size")
	fs.StringVar(&c.strategy, "strategy", "pull-oldest", "gossip pull strategy: pull-oldest | pull-newest | pull-random")
	fs.IntVar(&c.degree, "degree", 3, "d-regular digraph degree (randreg scheme)")
	fs.StringVar(&c.rrMode, "randreg-mode", "latin", "randreg schedule: latin | pull | push")
	fs.Int64Var(&c.seed, "seed", 1, "seed for the gossip mesh or randreg digraph")
	fs.IntVar(&c.rounds, "rounds", 6, "MDC playback rounds (mdc scheme)")
	fs.BoolVar(&c.doCheck, "check", false, "statically verify the schedule and mesh (internal/check) before running")
	fs.StringVar(&c.metricsOut, "metrics-out", "", "write Prometheus-format metrics to this file ('-' for stdout)")
	fs.StringVar(&c.traceOut, "trace-out", "", "write a JSONL event trace to this file ('-' for stdout)")
	fs.StringVar(&c.reportOut, "report-out", "", "write a JSON run report to this file ('-' for stdout)")
	fs.StringVar(&c.faultsPath, "faults", "", "replay this deterministic fault plan (see FAULTS.md)")
	fs.Int64Var(&c.faultSeed, "fault-seed", 0, "override the fault plan's seed (0 = keep the plan's)")
	fs.StringVar(&c.churnKind, "churn", "", "run live mid-stream churn: plan | poisson | flash | wave")
	fs.Float64Var(&c.churnRate, "churn-rate", 0, "expected churn ops per slot (generator kinds)")
	fs.Int64Var(&c.churnSeed, "churn-seed", 0, "churn generator seed (0 = the default)")
	fs.IntVar(&c.churnMax, "churn-max", 0, "join budget / id-space ceiling (0 = auto)")
	fs.StringVar(&c.churnPolicy, "churn-policy", "", "repair policy: eager | lazy")
	fs.StringVar(&c.churnSlots, "churn-slots", "", "churn window lo..hi (lo.. = open-ended)")
	return c
}

// paramFlags maps flag names to registry parameter names.
var paramFlags = map[string]string{
	"n": "n", "d": "d", "construction": "construction",
	"k": "k", "D": "D", "tc": "tc", "intra": "intra",
	"gossip-degree": "degree", "strategy": "strategy", "seed": "seed",
	"rounds": "rounds",
	"degree": "degree", "randreg-mode": "mode",
}

// scenario translates the parsed flags into a spec.Scenario. Only flags
// the user actually set become part of the scenario, so the registry's
// validation applies to flag runs and scenario files identically.
func (c *cli) scenario() (*spec.Scenario, error) {
	sc := &spec.Scenario{Scheme: c.scheme}
	var badFlag error
	c.fs.Visit(func(f *flag.Flag) {
		if param, ok := paramFlags[f.Name]; ok {
			if sc.Params == nil {
				sc.Params = map[string]string{}
			}
			sc.Params[param] = f.Value.String()
			return
		}
		switch f.Name {
		case "mode":
			sc.Mode = c.mode
		case "scenario", "list-schemes", "pprof", "scheme":
			// handled outside the scenario
		case "packets":
			sc.Packets = c.packets
		case "slots":
			sc.Slots = c.slots
		case "check":
			sc.Check = c.doCheck
		case "metrics-out":
			sc.MetricsOut = c.metricsOut
		case "trace-out":
			sc.TraceOut = c.traceOut
		case "report-out":
			sc.ReportOut = c.reportOut
		case "faults":
			sc.FaultsFile = c.faultsPath
		case "fault-seed":
			sc.FaultSeed = c.faultSeed
		case "churn":
			sc.ChurnKind = c.churnKind
		case "churn-rate":
			sc.ChurnRate = c.churnRate
		case "churn-seed":
			sc.ChurnSeed = c.churnSeed
		case "churn-max":
			sc.ChurnMax = c.churnMax
		case "churn-policy":
			// eager is the canonical default spelling, stored as empty
			// exactly as the directive parser stores it.
			if c.churnPolicy != "eager" {
				sc.ChurnPolicy = c.churnPolicy
			}
		case "churn-slots":
			lo, hi, err := spec.ParseChurnWindow(c.churnSlots)
			if err != nil {
				badFlag = fmt.Errorf("-churn-slots: %v", err)
				return
			}
			sc.ChurnBegin, sc.ChurnEnd = lo, hi
		default:
			badFlag = fmt.Errorf("flag -%s has no scenario mapping", f.Name)
		}
	})
	if badFlag != nil {
		return nil, badFlag
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return sc, nil
}

func main() {
	c := newCLI(flag.CommandLine)
	flag.Parse()

	if c.listSchemes {
		printSchemes(os.Stdout)
		return
	}

	if c.pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(c.pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "streamsim: pprof: %v\n", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "streamsim: pprof listening on http://%s/debug/pprof/\n", c.pprofAddr)
	}

	var (
		sc  *spec.Scenario
		err error
	)
	if c.scenarioPath != "" {
		anyFlagScenario := false
		c.fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "scenario", "pprof":
			default:
				anyFlagScenario = true
			}
		})
		if anyFlagScenario {
			fatalf("-scenario replaces the flag scenario; drop the other flags or fold them into %s", c.scenarioPath)
		}
		sc, err = spec.Load(c.scenarioPath)
	} else {
		sc, err = c.scenario()
	}
	check(err)
	check(runScenario(sc, os.Stdout, os.Stderr))
}

// printSchemes renders the registry: one block per family with its
// capability flags and accepted parameters.
func printSchemes(w io.Writer) {
	for _, f := range spec.Families() {
		var caps []string
		if f.Caps.StaticCheck {
			caps = append(caps, "checkable")
		}
		if f.Caps.Periodic {
			caps = append(caps, "periodic")
		}
		if f.Caps.BestEffort {
			caps = append(caps, "best-effort")
		}
		if f.Caps.LiveChurn {
			caps = append(caps, "live-churn")
		}
		fmt.Fprintf(w, "%-12s %s\n", f.Name, f.Doc)
		if len(caps) > 0 {
			fmt.Fprintf(w, "             capabilities: %v\n", caps)
		}
		for _, p := range f.Params {
			fmt.Fprintf(w, "             -%s (default %s): %s\n", flagName(p.Name), p.Def, p.Doc)
		}
	}
}

// flagName maps a registry parameter name back to its streamsim flag. A
// same-named flag wins; otherwise the lexicographically smallest mapped
// flag is chosen so the listing is deterministic (e.g. parameter "degree"
// is served by both -degree and -gossip-degree).
func flagName(param string) string {
	if p, ok := paramFlags[param]; ok && p == param {
		return param
	}
	best := ""
	for fl, p := range paramFlags {
		if p == param && (best == "" || fl < best) {
			best = fl
		}
	}
	if best != "" {
		return best
	}
	return param
}

// runScenario builds and executes one scenario, writing the human report
// to stdout and the progress/diagnostic lines to stderr — the single path
// behind both the flag and -scenario invocations.
func runScenario(sc *spec.Scenario, stdout, stderr io.Writer) error {
	run, err := spec.Build(sc)
	if err != nil {
		return err
	}
	if run.Injector != nil {
		fmt.Fprintf(stderr, "streamsim: faults: %s\n", run.Injector.Describe())
	}
	if sc.Check {
		rep, err := run.Preflight()
		if err != nil {
			return err
		}
		if !rep.OK() {
			for _, is := range rep.Issues {
				fmt.Fprintf(stderr, "streamsim: check: %s\n", is)
			}
			return fmt.Errorf("static check rejected %s (%d issues)", rep.Scheme, len(rep.Issues))
		}
		fmt.Fprintf(stderr, "streamsim: check: %s ok (worst delay %d, worst buffer %d)\n",
			rep.Scheme, rep.WorstDelay, rep.WorstBuffer)
	}

	sk, observer, err := newSinks(sc.MetricsOut, sc.TraceOut, sc.ReportOut)
	if err != nil {
		return err
	}
	opt := run.Opt
	opt.Observer = observer
	if sc.Parallel {
		fmt.Fprintln(stderr, "streamsim: parallel: accepted and ignored: the engine is single-threaded; results never depended on worker count")
	}
	res, err := slotsim.Run(run.Schedule(), opt)
	if err != nil {
		// A failed run still owes its trace: its last events, a violation
		// included, sit in the writer's buffer. The run's error is the one
		// reported.
		_ = sk.closeTrace()
		return err
	}
	churn := run.ChurnReport(res)
	if churn != nil {
		fmt.Fprintf(stderr,
			"streamsim: live churn: %d ops (%d joins, %d leaves), %d total swaps, worst op %d (bound d²+d = %d)\n",
			churn.Ops, churn.Joins, churn.Leaves, churn.TotalSwaps, churn.MaxSwaps, churn.SwapBound)
		fmt.Fprintf(stderr,
			"streamsim: playback SLO: %d nodes, %d hiccups in %d gaps, max stall %d slots, rebuffer %.4f, repair %d slots\n",
			churn.NodesMeasured, churn.Hiccups, churn.Gaps, churn.MaxStallSlots, churn.RebufferRatio, churn.TimeToRepairSlots)
	}
	report(run, res, stdout)
	return sk.finish(run.Scheme, opt, res, sc.Workers, churn)
}

// report prints the slotsim result: the generic shape for most families,
// the receivers-only shape for cluster (its delay statistics exclude the
// backbone infrastructure nodes), and the quality lines for mdc.
func report(run *spec.Run, res *slotsim.Result, w io.Writer) {
	s := run.Scheme
	if cs, ok := s.(*cluster.Scheme); ok {
		cfg := cs.Config()
		var worst core.Slot
		var sum float64
		ids := cs.ReceiverIDs()
		for _, id := range ids {
			if sd := res.StartDelay[id]; sd > worst {
				worst = sd
			}
			sum += float64(res.StartDelay[id])
		}
		fmt.Fprintf(w, "scheme:        %s\n", s.Name())
		fmt.Fprintf(w, "receivers:     %d (over %d clusters)\n", len(ids), cfg.K)
		fmt.Fprintf(w, "worst delay:   %d slots (receivers only)\n", worst)
		fmt.Fprintf(w, "avg delay:     %.2f slots (receivers only)\n", sum/float64(len(ids)))
		fmt.Fprintf(w, "worst buffer:  %d packets\n", res.WorstBuffer())
		fmt.Fprintf(w, "slots used:    %d\n", res.SlotsUsed)
		return
	}
	fmt.Fprintf(w, "scheme:        %s\n", s.Name())
	fmt.Fprintf(w, "receivers:     %d\n", s.NumReceivers())
	fmt.Fprintf(w, "worst delay:   %d slots\n", res.WorstStartDelay())
	fmt.Fprintf(w, "avg delay:     %.2f slots\n", res.AvgStartDelay())
	fmt.Fprintf(w, "worst buffer:  %d packets\n", res.WorstBuffer())
	maxNb := 0
	for _, nb := range s.Neighbors() {
		if len(nb) > maxNb {
			maxNb = len(nb)
		}
	}
	fmt.Fprintf(w, "max neighbors: %d\n", maxNb)
	fmt.Fprintf(w, "slots used:    %d\n", res.SlotsUsed)
	if d := run.Descriptions(); d > 0 {
		mean, worst := mdc.SystemQuality(res, run.Opt.Arrivals, d)
		fmt.Fprintf(w, "mdc quality:   %.3f mean, %.3f worst node (%d descriptions)\n", mean, worst, d)
	}
	if run.Injector != nil {
		degraded, missing := 0, 0
		for id := 1; id <= s.NumReceivers(); id++ {
			if res.Missing[id] > 0 {
				degraded++
				missing += res.Missing[id]
			}
		}
		fmt.Fprintf(w, "faulted:       %d of %d nodes missing packets (%d packets total)\n",
			degraded, s.NumReceivers(), missing)
	}
}

// sinks bundles the CLI's observability outputs: where to write Prometheus
// metrics, the JSONL trace, and the JSON run report after the run finishes.
type sinks struct {
	metrics     *obs.Metrics
	trace       *obs.JSONLWriter
	traceFile   *os.File
	metricsFile *os.File
	reportFile  *os.File
}

// newSinks opens every requested output up front — a bad path should fail
// before a long simulation, not after — and returns the combined observer
// to attach to the engine (nil when no observability flag was given,
// preserving the engine's no-observer fast path).
func newSinks(metricsOut, traceOut, reportOut string) (*sinks, obs.Observer, error) {
	sk := &sinks{}
	var list []obs.Observer
	if metricsOut != "" || reportOut != "" {
		sk.metrics = obs.NewMetrics()
		list = append(list, sk.metrics)
	}
	var err error
	if metricsOut != "" {
		if sk.metricsFile, err = openOut(metricsOut); err != nil {
			return nil, nil, err
		}
	}
	if reportOut != "" {
		if sk.reportFile, err = openOut(reportOut); err != nil {
			return nil, nil, err
		}
	}
	if traceOut != "" {
		if sk.traceFile, err = openOut(traceOut); err != nil {
			return nil, nil, err
		}
		sk.trace = obs.NewJSONLWriter(sk.traceFile)
		list = append(list, sk.trace)
	}
	return sk, obs.Combine(list...), nil
}

// closeTrace flushes the JSONL trace, if one was requested, and closes its
// file.
func (sk *sinks) closeTrace() error {
	if sk.trace == nil {
		return nil
	}
	if err := sk.trace.Flush(); err != nil {
		return err
	}
	return closeOut(sk.traceFile)
}

// finish flushes and writes every requested output for a completed run.
// churn, when non-nil, becomes the run report's live-churn section.
func (sk *sinks) finish(s core.Scheme, opt slotsim.Options, res *slotsim.Result, workers int, churn *obs.ChurnSLO) error {
	if err := sk.closeTrace(); err != nil {
		return err
	}
	if sk.metricsFile != nil {
		if err := sk.metrics.WriteProm(sk.metricsFile, s.Name()); err != nil {
			return err
		}
		if err := closeOut(sk.metricsFile); err != nil {
			return err
		}
	}
	if sk.reportFile != nil {
		rep := slotsim.BuildReport(s, opt, res, sk.metrics, workers)
		rep.Churn = churn
		if err := rep.WriteJSON(sk.reportFile); err != nil {
			return err
		}
		if err := closeOut(sk.reportFile); err != nil {
			return err
		}
	}
	return nil
}

// openOut opens an output path for writing, treating "-" as stdout.
func openOut(path string) (*os.File, error) {
	if path == "-" {
		return os.Stdout, nil
	}
	return os.Create(path)
}

// closeOut closes an output opened by openOut, leaving stdout alone.
func closeOut(f *os.File) error {
	if f != os.Stdout {
		return f.Close()
	}
	return nil
}

func check(err error) {
	if err != nil {
		fatalf("%v", err)
	}
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "streamsim: "+format+"\n", args...)
	os.Exit(1)
}
