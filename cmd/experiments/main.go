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
package main

import (
	"flag"
	"fmt"
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
	var (
		which   = flag.String("run", "all", "experiment id or 'all'")
		csv     = flag.Bool("csv", false, "emit CSV")
		out     = flag.String("out", "", "directory to write per-table files into")
		quick   = flag.Bool("quick", false, "smaller sweeps for a fast pass")
		reports = flag.String("reports", "", "directory to write a JSON run report per simulation into")
	)
	flag.Parse()

	all := runners(*quick)

	if *reports != "" {
		if err := os.MkdirAll(*reports, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
	}

	ran := false
	for _, r := range all {
		if *which != "all" && *which != r.name {
			continue
		}
		ran = true
		if *reports != "" {
			seq := 0
			name := r.name
			experiments.SetReportSink(func(rep *obs.RunReport) {
				seq++
				writeReport(rep, filepath.Join(*reports, fmt.Sprintf("%s-%03d.json", name, seq)))
			})
		}
		tab, err := r.run()
		experiments.SetReportSink(nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", r.name, err)
			os.Exit(1)
		}
		if *csv {
			tab.CSV(os.Stdout)
		} else {
			tab.Render(os.Stdout)
		}
		if *out != "" {
			if err := os.MkdirAll(*out, 0o755); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
				os.Exit(1)
			}
			f, err := os.Create(filepath.Join(*out, r.name+".csv"))
			if err != nil {
				fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
				os.Exit(1)
			}
			tab.CSV(f)
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
				os.Exit(1)
			}
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q\n", *which)
		os.Exit(1)
	}
}

// writeReport saves one JSON run report, exiting on any I/O failure.
func writeReport(rep *obs.RunReport, path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
	if err := rep.WriteJSON(f); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
}
