// Command streamsim runs one streaming scheme through the slot-synchronous
// simulator and reports its QoS metrics: per-scheme worst and average
// playback delay, peak buffer occupancy, and neighbor counts.
//
// A run is described by scenario text (SCENARIOS.md is the whole
// reference), and the command takes exactly three flags:
//
//	streamsim -scenario FILE|- [-pprof FILE]
//	streamsim -list-schemes
//
// -scenario names a scenario file, or "-" to read the scenario from stdin. A
// relative `faults file=` path resolves against the scenario file's
// directory, or against the working directory for stdin. -list-schemes
// prints the scheme registry: every family with its capabilities and each
// parameter as the `param name=default` a scenario writes. -pprof writes a
// CPU profile of the whole command (scenario load to last output) to FILE,
// which `go tool pprof` reads directly. A parameter the selected scheme would
// silently ignore is a precise error, not a no-op.
//
// Examples:
//
//	streamsim -scenario run.scn
//	streamsim -scenario - <<EOF
//	scheme multitree
//	param n=100 d=3
//	mode live
//	check
//	out report=report.json
//	EOF
//
// The `check` directive runs the static schedule/mesh verifier
// (internal/check, STATIC_ANALYSIS.md) as a preflight; `out metrics= trace=
// report=` writes Prometheus metrics, a JSONL event trace and a JSON run
// report (OBSERVABILITY.md); `faults file=` replays a deterministic fault
// plan (FAULTS.md); and `churn kind=` makes joins and leaves a mid-run
// workload, each operation held to the paper's d²+d swap bound, with the
// playback SLOs reported on stderr. A plan that carries join/leave events
// needs `churn kind=plan`: without it the run is refused, never silently
// static.
//
// Exit status: 0 on success, 1 when the scenario is rejected or the run
// fails, 2 on a usage error.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"

	"streamcast/internal/cluster"
	"streamcast/internal/core"
	"streamcast/internal/mdc"
	"streamcast/internal/obs"
	"streamcast/internal/slotsim"
	"streamcast/internal/spec"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is the whole command: it parses args, then lists the registry or runs
// one scenario, and returns the exit status.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("streamsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scenarioPath := fs.String("scenario", "", "run this scenario (SCENARIOS.md); '-' reads it from stdin")
	listSchemes := fs.Bool("list-schemes", false, "print the scheme registry (families, capabilities, parameters) and exit")
	pprofPath := fs.String("pprof", "", "write a CPU profile of the run to this file (read it with go tool pprof)")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: streamsim -scenario FILE|- [-pprof FILE]\n       streamsim -list-schemes")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *listSchemes {
		printSchemes(stdout)
		return 0
	}
	if *scenarioPath == "" || fs.NArg() > 0 {
		fs.Usage()
		return 2
	}

	if *pprofPath != "" {
		f, err := os.Create(*pprofPath)
		if err == nil {
			if err = pprof.StartCPUProfile(f); err != nil {
				f.Close()
			}
		}
		if err != nil {
			fmt.Fprintf(stderr, "streamsim: pprof: %v\n", err)
			return 1
		}
		// The profile is whole only once the file is closed.
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintf(stderr, "streamsim: pprof: %v\n", err)
				code = 1
				return
			}
			fmt.Fprintf(stderr, "streamsim: pprof: CPU profile written to %s\n", *pprofPath)
		}()
	}

	sc, err := loadScenario(*scenarioPath, stdin)
	if err == nil {
		err = runScenario(sc, stdout, stderr)
	}
	if err != nil {
		fmt.Fprintf(stderr, "streamsim: %v\n", err)
		return 1
	}
	return 0
}

// loadScenario reads the scenario named by -scenario. From stdin the text is
// parsed as it stands, so a relative faults path resolves against the
// working directory; spec.Load resolves it against the file's directory.
func loadScenario(path string, stdin io.Reader) (*spec.Scenario, error) {
	if path != "-" {
		return spec.Load(path)
	}
	src, err := io.ReadAll(stdin)
	if err != nil {
		return nil, fmt.Errorf("reading the scenario from stdin: %w", err)
	}
	return spec.Parse(string(src))
}

// capabilities renders a family's capability flags as the words
// -list-schemes prints and SCENARIOS.md's family table uses.
func capabilities(f *spec.Family) []string {
	var caps []string
	if f.Caps.StaticCheck {
		caps = append(caps, "checkable")
	}
	if f.Caps.BestEffort {
		caps = append(caps, "best-effort")
	}
	if f.Caps.LiveChurn {
		caps = append(caps, "live-churn")
	}
	return caps
}

// printSchemes renders the registry: one block per family with its
// capabilities and every accepted parameter, spelled as a scenario writes it.
func printSchemes(w io.Writer) {
	for _, f := range spec.Families() {
		fmt.Fprintf(w, "%-12s %s\n", f.Name, f.Doc)
		if caps := capabilities(f); len(caps) > 0 {
			fmt.Fprintf(w, "             capabilities: %v\n", caps)
		}
		for _, p := range f.Params {
			fmt.Fprintf(w, "             param %s=%s: %s\n", p.Name, p.Def, p.Doc)
		}
	}
}

// runScenario builds and executes one scenario, writing the human report
// to stdout and the progress/diagnostic lines to stderr.
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

	sk, observer, err := newSinks(sc.MetricsOut, sc.TraceOut, sc.ReportOut, stdout)
	if err != nil {
		return err
	}
	if sc.Parallel {
		fmt.Fprintln(stderr, "streamsim: parallel: accepted and ignored: the engine is single-threaded; results never depended on worker count")
	}
	res, err := run.Execute(observer)
	// The trace is whole once the run returns, and it is closed before
	// anything else reaches stdout: `out trace=-` shares stdout with the
	// text report, which must follow the trace, not split it. A failed run
	// still owes its trace (its last events, a violation included, are
	// still in the writer); the run's error is then the one reported.
	traceErr := sk.closeTrace()
	if err != nil {
		return err
	}
	if traceErr != nil {
		return traceErr
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
	if res.CertPeriod > 0 {
		fmt.Fprintf(stderr, "streamsim: certified: slot %d, period %d\n", res.CertSlot, res.CertPeriod)
	}
	return sk.finish(run.Scheme, run.Opt, res, sc.Workers, churn)
}

// report prints the slotsim result: the generic shape for most families,
// the receivers-only shape for cluster (its delay statistics exclude the
// backbone infrastructure nodes), and the quality lines for mdc.
func report(run *spec.Run, res *slotsim.Result, w io.Writer) {
	s := run.Scheme
	if cs, ok := s.(*cluster.Scheme); ok {
		worst, avg := cs.ReceiverDelays(res)
		fmt.Fprintf(w, "scheme:        %s\n", s.Name())
		fmt.Fprintf(w, "receivers:     %d (over %d clusters)\n", len(cs.ReceiverIDs()), cs.Config().K)
		fmt.Fprintf(w, "worst delay:   %d slots (receivers only)\n", worst)
		fmt.Fprintf(w, "avg delay:     %.2f slots (receivers only)\n", avg)
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
	metrics    *obs.Metrics
	trace      *obs.JSONLWriter
	traceOut   io.WriteCloser
	metricsOut io.WriteCloser
	reportOut  io.WriteCloser
}

// newSinks opens every requested output up front — a bad path should fail
// before a long simulation, not after — and returns the combined observer
// to attach to the engine (nil when no output was requested, so that a bare
// run may end once its window is complete). A path of "-" writes to stdout.
func newSinks(metricsOut, traceOut, reportOut string, stdout io.Writer) (*sinks, obs.Observer, error) {
	sk := &sinks{}
	var list []obs.Observer
	if metricsOut != "" || reportOut != "" {
		sk.metrics = obs.NewMetrics()
		list = append(list, sk.metrics)
	}
	var err error
	if metricsOut != "" {
		if sk.metricsOut, err = openOut(metricsOut, stdout); err != nil {
			return nil, nil, err
		}
	}
	if reportOut != "" {
		if sk.reportOut, err = openOut(reportOut, stdout); err != nil {
			return nil, nil, err
		}
	}
	if traceOut != "" {
		if sk.traceOut, err = openOut(traceOut, stdout); err != nil {
			return nil, nil, err
		}
		sk.trace = obs.NewJSONLWriter(sk.traceOut)
		list = append(list, sk.trace)
	}
	return sk, obs.Combine(list...), nil
}

// closeTrace flushes the JSONL trace, if one was requested, and closes its
// output.
func (sk *sinks) closeTrace() error {
	if sk.trace == nil {
		return nil
	}
	if err := sk.trace.Flush(); err != nil {
		return err
	}
	return sk.traceOut.Close()
}

// finish writes the metrics and the run report of a completed run; the
// trace is closed by then. churn, when non-nil, becomes the run report's
// live-churn section.
func (sk *sinks) finish(s core.Scheme, opt slotsim.Options, res *slotsim.Result, workers int, churn *obs.ChurnSLO) error {
	if sk.metricsOut != nil {
		if err := sk.metrics.WriteProm(sk.metricsOut, s.Name()); err != nil {
			return err
		}
		if err := sk.metricsOut.Close(); err != nil {
			return err
		}
	}
	if sk.reportOut != nil {
		rep := slotsim.BuildReport(s, opt, res, sk.metrics, workers)
		rep.Churn = churn
		if err := rep.WriteJSON(sk.reportOut); err != nil {
			return err
		}
		if err := sk.reportOut.Close(); err != nil {
			return err
		}
	}
	return nil
}

// openOut opens an output path for writing, treating "-" as stdout.
func openOut(path string, stdout io.Writer) (io.WriteCloser, error) {
	if path == "-" {
		return stdoutOut{stdout}, nil
	}
	return os.Create(path)
}

// stdoutOut is the "-" output: writes go to stdout, which Close leaves open.
type stdoutOut struct{ io.Writer }

func (stdoutOut) Close() error { return nil }
