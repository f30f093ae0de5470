package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// metricDef names one metric of the benchmark. bound is the share of the
// baseline median by which it may worsen before -compare calls a
// regression; exact metrics must be identical.
type metricDef struct {
	name   string
	unit   string
	higher bool // higher is better
	bound  float64
	exact  bool
}

// endToEnd are the metrics a user of the CLIs would see, per workload.
// setup_s, wall_ms_p50, cpu_ms_p50 and peak_rss_mb are the contract's
// end_to_end list (BENCHMARK.json); the rest are either derived from wall
// time, legitimately 0, or exact simulated values, which the contract's
// "never 0, spread within the bound" rules cannot hold — BENCHMARK.json
// lists them under per_layer and -compare gates them here.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", bound: 0.25},
	{name: "wall_ms_p50", unit: "ms", bound: 0.25},
	{name: "cpu_ms_p50", unit: "ms", bound: 0.25},
	{name: "peak_rss_mb", unit: "MB", bound: 0.15},
	{name: "node_slots_per_s", unit: "1/s", higher: true, bound: 0.25},
	{name: "failed_share", unit: "share", exact: true},
	{name: "sim_worst_delay_slots", unit: "slots", exact: true},
	{name: "sim_worst_buffer_pkts", unit: "pkts", exact: true},
	{name: "sim_missing_pkts", unit: "pkts", exact: true},
}

// contractEndToEnd is how many leading entries of endToEnd the benchmark
// contract gates with a bound.
const contractEndToEnd = 4

// perLayer lists every per-layer metric in print order; units are fixed
// here so a run that skips a layer still reports the metric (as 0).
var perLayer = func() []metricDef {
	defs := []metricDef{
		{name: "spec.parse_ms", unit: "ms"},
		{name: "spec.build_ms", unit: "ms"},
		{name: "spec.build_alloc_mb", unit: "MB"},
		{name: "check.static_ms", unit: "ms"},
		{name: "core.compile_ms", unit: "ms"},
		{name: "core.compiled", unit: "count", higher: true},
		{name: "core.compiled_txs", unit: "count"},
		{name: "scheme.generate_ms", unit: "ms"},
		{name: "scheme.neighbors_ms", unit: "ms"},
		{name: "slotsim.run_ms", unit: "ms"},
		{name: "slotsim.run_cold_ms", unit: "ms"},
		{name: "slotsim.node_slots_per_s", unit: "1/s", higher: true},
		{name: "slotsim.run_allocs", unit: "count"},
		{name: "slotsim.run_alloc_mb", unit: "MB"},
		{name: "slotsim.share_of_pipeline", unit: "share"},
		{name: "slotsim.sharded_over_seq", unit: "ratio"},
		{name: "slotsim.churn_report_ms", unit: "ms"},
		{name: "slotsim.build_report_ms", unit: "ms"},
		{name: "faults.inject_calls", unit: "count"},
		{name: "faults.inject_drops", unit: "count"},
		{name: "faults.churn_step_ms", unit: "ms"},
		{name: "faults.churn_ops", unit: "count"},
		{name: "faults.churn_swaps_max", unit: "count"},
		{name: "obs.metrics_overhead_ratio", unit: "ratio"},
		{name: "obs.jsonl_overhead_ratio", unit: "ratio"},
		{name: "obs.events", unit: "count"},
		{name: "obs.write_json_ms", unit: "ms"},
		{name: "obs.write_json_bytes", unit: "bytes"},
		{name: "obs.write_prom_ms", unit: "ms"},
		{name: "obs.jsonl_flush_ms", unit: "ms"},
		{name: "obs.jsonl_bytes", unit: "bytes"},
		{name: "pipeline.total_ms", unit: "ms"},
		{name: "pipeline.cold_ms", unit: "ms"},
		{name: "pipeline.untraced_ms", unit: "ms"},
		{name: "pipeline.trace_overhead_ratio", unit: "ratio"},
		{name: "pipeline.unattributed_share", unit: "share"},
		{name: "pipeline.allocs", unit: "count"},
		{name: "pipeline.alloc_mb", unit: "MB"},
		{name: "cli.wall_ms_p90", unit: "ms"},
		{name: "cli.samples", unit: "count", higher: true},
		{name: "cli.over_pipeline_ratio", unit: "ratio"},
	}
	for _, id := range tableIDs {
		defs = append(defs, metricDef{name: "experiments." + id + ".wall_ms", unit: "ms"})
	}
	return defs
}()

// value is one reported number. spread is the distance between the first
// and third quartile of the samples behind it as a share of their median
// (0 when it is not a statistic of repeated samples).
type value struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Spread float64 `json:"spread,omitempty"`
}

// quantile returns the q-quantile of xs by linear interpolation at
// position q·(n+1) — the rule Python's statistics.quantiles uses by
// default, so spreads computed here match the ones the benchmark contract
// computes. xs need not be sorted; an empty input gives 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q*float64(len(s)+1) - 1
	if pos <= 0 {
		return s[0]
	}
	if pos >= float64(len(s)-1) {
		return s[len(s)-1]
	}
	lo := int(math.Floor(pos))
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// spread is the interquartile range over the median.
func spread(xs []float64) float64 {
	m := median(xs)
	if len(xs) < 2 || m == 0 {
		return 0
	}
	return (quantile(xs, 0.75) - quantile(xs, 0.25)) / m
}

// statOf summarizes repeated samples as their median with its spread.
func statOf(xs []float64, unit string) value {
	return value{Value: median(xs), Unit: unit, Spread: spread(xs)}
}

// printMetrics writes one "name value unit" row per definition, in order.
func printMetrics(w io.Writer, title string, defs []metricDef, vals map[string]value) {
	fmt.Fprintf(w, "%s\n", title)
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			continue
		}
		extra := ""
		if v.Spread > 0 {
			extra = fmt.Sprintf("   (spread %.1f%%)", 100*v.Spread)
		}
		fmt.Fprintf(w, "  %-34s %16s %-6s%s\n", d.name, formatNumber(v.Value), v.Unit, extra)
	}
}

func formatNumber(x float64) string {
	if x == math.Trunc(x) && math.Abs(x) < 1e15 {
		return fmt.Sprintf("%d", int64(x))
	}
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.4f", x), "0"), ".")
}
