// Command experiments regenerates the paper's tables and figures (see
// DESIGN.md for the experiment index and EXPERIMENTS.md for the recorded
// paper-vs-measured comparison).
//
//	experiments -run all          run everything
//	experiments -run fig4         one experiment
//	experiments -run table1 -csv  CSV instead of aligned text
//	experiments -out results/     additionally write one file per table
//	experiments -run table1 -reports reports/
//	                              also write a JSON run report per simulation
//
// The selected tables run at once, sharing one CPU budget of GOMAXPROCS
// tokens (internal/experiments), and are printed in runner order as each
// completes. With -reports they run one after another, so each table's
// report files are numbered in its run order.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"streamcast/internal/experiments"
	"streamcast/internal/multitree"
	"streamcast/internal/obs"
)

type runner struct {
	name string
	run  func() (*experiments.Table, error)
}

// runners lists every experiment in `-run all` order, at the full sizes
// results/ records or, with quick, at the smaller -quick sizes.
func runners(quick bool) []runner {
	fig4Max, fig4Step := 2000, 100
	table1Ns := []int{15, 63, 127, 255, 511, 1023}
	boundNs := []int{20, 50, 100, 250, 500, 1000}
	hcNs := []int{7, 15, 31, 50, 100, 255, 500, 1000, 2000}
	degNs := []int{10, 30, 100, 300, 1000, 3000, 10000}
	baseNs := []int{50, 200, 1000}
	rrNs := []int{100, 1000, 10000}
	rrTrials := 3
	churnOps := 2000
	churnPackets := 200
	churnRates := []float64{0.25, 0.5, 1}
	faultsN := 60
	if quick {
		fig4Max, fig4Step = 400, 100
		table1Ns = []int{15, 63}
		boundNs = []int{20, 100}
		hcNs = []int{7, 50, 255}
		degNs = []int{10, 100, 1000}
		baseNs = []int{50}
		rrNs = []int{100, 300}
		rrTrials = 2
		churnOps = 300
		churnPackets = 60
		churnRates = []float64{0.5}
		faultsN = 24
	}

	schemesN := 40
	if quick {
		schemesN = 16
	}

	return []runner{
		{"schemes", func() (*experiments.Table, error) {
			return experiments.SchemeMatrix(schemesN)
		}},
		{"fig4", func() (*experiments.Table, error) {
			return experiments.Figure4(fig4Max, fig4Step, []int{2, 3, 4, 5}, multitree.Greedy)
		}},
		{"table1", func() (*experiments.Table, error) {
			return experiments.Table1(table1Ns, 3)
		}},
		{"cluster", func() (*experiments.Table, error) {
			return experiments.ClusterExperiment(9, 3, 4, 30, []int{2, 5, 10, 20, 40})
		}},
		{"bounds", func() (*experiments.Table, error) {
			return experiments.DelayBounds(boundNs, []int{2, 3, 4, 5})
		}},
		{"hcavg", func() (*experiments.Table, error) {
			return experiments.HypercubeAvgDelay(hcNs)
		}},
		{"degree", func() (*experiments.Table, error) {
			return experiments.DegreeOptimization(degNs, 8)
		}},
		{"churn", func() (*experiments.Table, error) {
			return experiments.ChurnSurvival(50, 3, churnPackets, churnRates, 1)
		}},
		{"baselines", func() (*experiments.Table, error) {
			return experiments.Baselines(baseNs)
		}},
		{"livemodes", func() (*experiments.Table, error) {
			return experiments.LiveModes([]int{20, 100, 500}, 3)
		}},
		{"delaydist", func() (*experiments.Table, error) {
			return experiments.DelayDistribution(baseNs, 3)
		}},
		{"churncmp", func() (*experiments.Table, error) {
			return experiments.ChurnComparison(50, 3, churnOps, 1)
		}},
		{"churnimpact", func() (*experiments.Table, error) {
			return experiments.ChurnImpact(40, 3, churnOps/4, 1)
		}},
		{"unstructured", func() (*experiments.Table, error) {
			return experiments.StructuredVsUnstructured(baseNs, 3)
		}},
		{"midstream", func() (*experiments.Table, error) {
			return experiments.MidStreamSwaps(41, 3)
		}},
		{"mdc", func() (*experiments.Table, error) {
			return experiments.MDCGracefulDegradation(60, 4, []float64{0.005, 0.02, 0.1}, 1)
		}},
		{"faults", func() (*experiments.Table, error) {
			return experiments.FaultDegradation(faultsN, 3, 11)
		}},
		{"randreg", func() (*experiments.Table, error) {
			return experiments.RandRegFrontier(rrNs, 3, rrTrials, 1)
		}},
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the output flags drive honours.
type options struct {
	csv          bool
	out, reports string
}

// run is the whole command: it parses args, runs the selected tables through
// drive and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	which := fs.String("run", "all", "experiment id or 'all'")
	fs.BoolVar(&o.csv, "csv", false, "emit CSV")
	fs.StringVar(&o.out, "out", "", "directory to write per-table files into")
	quick := fs.Bool("quick", false, "smaller sweeps for a fast pass")
	fs.StringVar(&o.reports, "reports", "", "directory to write a JSON run report per simulation into")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	var sel []runner
	for _, r := range runners(*quick) {
		if *which == "all" || *which == r.name {
			sel = append(sel, r)
		}
	}
	if len(sel) == 0 {
		fmt.Fprintf(stderr, "experiments: unknown experiment %q\n", *which)
		return 1
	}
	if o.reports != "" {
		if err := os.MkdirAll(o.reports, 0o755); err != nil {
			fmt.Fprintf(stderr, "experiments: %v\n", err)
			return 1
		}
	}
	return drive(sel, o, stdout, stderr)
}

// drive runs the tables in sel and prints each, and writes its -out CSV, in
// sel's order. The tables overlap, except under -reports, where they run one
// after another. On the first table, in sel's order, that fails or cannot be
// written, it prints `experiments: NAME: err` after every earlier table and
// returns 1.
func drive(sel []runner, o options, stdout, stderr io.Writer) int {
	result := func(i int) (*experiments.Table, error) { return runReporting(sel[i], o.reports) }
	if o.reports == "" {
		result = overlap(sel)
	}
	for i, r := range sel {
		tab, err := result(i)
		if err == nil {
			err = emit(tab, r.name, o, stdout)
		}
		if err != nil {
			fmt.Fprintf(stderr, "experiments: %s: %v\n", r.name, err)
			return 1
		}
	}
	return 0
}

// overlap starts every table in sel at once and returns a function that
// waits for the i-th one's result. The budget in internal/experiments, not
// the number of tables, bounds how many compute at any moment. Each goroutine
// ends with its table: its send never blocks, so a caller that stops reading
// at an error leaves none stuck.
func overlap(sel []runner) func(i int) (*experiments.Table, error) {
	type result struct {
		tab *experiments.Table
		err error
	}
	done := make([]chan result, len(sel))
	for i, r := range sel {
		done[i] = make(chan result, 1)
		go func() {
			tab, err := r.run()
			done[i] <- result{tab, err}
		}()
	}
	return func(i int) (*experiments.Table, error) {
		res := <-done[i]
		return res.tab, res.err
	}
}

// runReporting runs one table with a report sink that writes each run's
// report to dir as NAME-001.json, NAME-002.json, ... in run order. The first
// report that cannot be written is the table's error.
func runReporting(r runner, dir string) (*experiments.Table, error) {
	seq := 0
	var werr error
	experiments.SetReportSink(func(rep *obs.RunReport) {
		seq++
		if werr == nil {
			werr = writeReport(rep, filepath.Join(dir, fmt.Sprintf("%s-%03d.json", r.name, seq)))
		}
	})
	defer experiments.SetReportSink(nil)
	tab, err := r.run()
	if werr != nil {
		return nil, werr
	}
	return tab, err
}

// emit prints tab to stdout and, with -out, writes it to DIR/name.csv.
func emit(tab *experiments.Table, name string, o options, stdout io.Writer) error {
	var err error
	if o.csv {
		err = tab.CSV(stdout)
	} else {
		err = tab.Render(stdout)
	}
	if err != nil || o.out == "" {
		return err
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(o.out, name+".csv"))
	if err != nil {
		return err
	}
	if err := tab.CSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeReport saves one JSON run report.
func writeReport(rep *obs.RunReport, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rep.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
