package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"streamcast/internal/spec"
)

func TestInputsFollowTheSeed(t *testing.T) {
	for _, w := range workloads {
		a, b := inputsFor(w, 7, false), inputsFor(w, 7, false)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed generated different inputs", w.name)
		}
	}
	for _, name := range []string{"dense-long", "observed", "churn-faulted"} {
		w := lookupWorkload(name)
		a, b := inputsFor(w, 1, false), inputsFor(w, 2, false)
		if a.n == b.n {
			t.Errorf("%s: seeds 1 and 2 drew the same N=%d", name, a.n)
		}
		if base := map[string]int{"dense-long": 31000, "observed": 8000, "churn-faulted": 10000}[name]; a.n < base-base/100 || a.n > base+base/100 {
			t.Errorf("%s: N=%d is outside ±1%% of %d", name, a.n, base)
		}
	}
	a, b := inputsFor(lookupWorkload("churn-faulted"), 1, false), inputsFor(lookupWorkload("churn-faulted"), 2, false)
	if a.files[planFile] == b.files[planFile] {
		t.Error("churn-faulted: seeds 1 and 2 share a fault seed")
	}
	long, sharded := inputsFor(lookupWorkload("dense-long"), 5, false), inputsFor(lookupWorkload("dense-sharded"), 5, false)
	if sharded.scenario != long.scenario+"parallel workers=2\n" {
		t.Errorf("dense-sharded is not dense-long plus one line:\n%s\nvs\n%s", sharded.scenario, long.scenario)
	}
	if x, y := inputsFor(lookupWorkload("cube-check"), 1, false), inputsFor(lookupWorkload("cube-check"), 2, false); x.scenario != y.scenario {
		t.Error("cube-check must not move with the seed (N has to stay 2^k−1)")
	}
}

func TestScenariosRoundTrip(t *testing.T) {
	for _, w := range workloads {
		if w.sweep {
			continue
		}
		for _, smoke := range []bool{false, true} {
			for seed := int64(1); seed <= 3; seed++ {
				in := inputsFor(w, seed, smoke)
				sc, err := spec.Parse(in.scenario)
				if err != nil {
					t.Fatalf("%s seed %d: generated scenario does not parse: %v\n%s", w.name, seed, err, in.scenario)
				}
				again, err := spec.Parse(sc.Format())
				if err != nil || !reflect.DeepEqual(sc, again) {
					t.Errorf("%s seed %d: Parse→Format→Parse changed the scenario (%v)", w.name, seed, err)
				}
			}
		}
	}
}

func TestQuantileMatchesPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for q, want := range map[float64]float64{0.25: 2.75, 0.5: 5.5, 0.75: 8.25} {
		if got := quantile(xs, q); got != want {
			t.Errorf("quantile(1..10, %v) = %v, want %v", q, got, want)
		}
	}
	if got := spread(xs); got != 1.0 {
		t.Errorf("spread(1..10) = %v, want (8.25−2.75)/5.5 = 1", got)
	}
	if quantile(nil, 0.5) != 0 || quantile([]float64{3}, 0.9) != 3 || spread([]float64{3}) != 0 {
		t.Error("degenerate inputs must give 0 / the single sample")
	}
}

func TestVerdict(t *testing.T) {
	def := func(name string) metricDef {
		for _, d := range endToEnd {
			if d.name == name {
				return d
			}
		}
		t.Fatalf("no end-to-end metric %s", name)
		return metricDef{}
	}
	wall := def("peak_rss_mb")      // lower is better, bound 15%
	rate := def("node_slots_per_s") // higher is better, bound 25%
	delay := def("sim_worst_delay_slots")
	cases := []struct {
		d          metricDef
		base, cand value
		want       string
	}{
		{wall, value{Value: 100}, value{Value: 114}, verdictOK},
		{wall, value{Value: 100}, value{Value: 116}, verdictRegressed},
		{wall, value{Value: 100}, value{Value: 50}, verdictOK},
		{wall, value{Value: 100, Spread: 0.2}, value{Value: 150}, verdictUnresolved},
		{wall, value{Value: 100}, value{Value: 101, Spread: 0.16}, verdictUnresolved},
		{rate, value{Value: 100}, value{Value: 76}, verdictOK},
		{rate, value{Value: 100}, value{Value: 74}, verdictRegressed},
		{rate, value{Value: 100}, value{Value: 300}, verdictOK},
		{delay, value{Value: 28}, value{Value: 28}, verdictOK},
		{delay, value{Value: 28}, value{Value: 27}, verdictRegressed},
	}
	for _, c := range cases {
		if _, got := verdict(c.d, c.base, c.cand); got != c.want {
			t.Errorf("%s %v → %v: verdict %s, want %s", c.d.name, c.base, c.cand, got, c.want)
		}
	}
}

func TestCompareExitCodes(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, wall, delay float64) string {
		rf := &runFile{Seed: 1, Workloads: []*workloadResult{{Name: "dense-long", Attempted: 3, EndToEnd: map[string]value{
			"wall_ms_p50":           {Value: wall, Unit: "ms", Spread: 0.01},
			"sim_worst_delay_slots": {Value: delay, Unit: "slots"},
		}}}}
		path := filepath.Join(dir, name)
		if err := writeJSON(path, rf); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", 700, 28)
	var out, errb bytes.Buffer
	if code := run([]string{"-compare", base, write("same.json", 720, 28)}, &out, &errb); code != 0 {
		t.Errorf("within the bound: exit %d\n%s%s", code, out.String(), errb.String())
	}
	if code := run([]string{"-compare", base, write("slow.json", 900, 28)}, &out, &errb); code != 1 {
		t.Errorf("29%% slower: exit %d, want 1", code)
	}
	if code := run([]string{"-compare", base, write("drift.json", 700, 29)}, &out, &errb); code != 1 {
		t.Errorf("a simulated value moved: exit %d, want 1", code)
	}
	if !strings.Contains(out.String(), verdictRegressed) {
		t.Errorf("no row says %q:\n%s", verdictRegressed, out.String())
	}
	if code := run([]string{"-compare", base}, &out, &errb); code != 2 {
		t.Errorf("one file: exit %d, want 2", code)
	}
}

func TestVerifyNamesTheViolatedBound(t *testing.T) {
	if got := theorem2Bound(30000, 4); got != 32 {
		t.Errorf("theorem2Bound(30000, 4) = %d, want 8·4", got)
	}
	ok := simStats{receivers: 31000, slotsUsed: 625, worstDelay: 28, worstBuffer: 11, complete: true}
	in := &inputs{n: 31000, d: 4}
	if bad := verifyDense(in, &iteration{sim: ok}); len(bad) != 0 {
		t.Errorf("a run inside the bounds was rejected: %v", bad)
	}
	late := ok
	late.worstDelay = 33
	if bad := verifyDense(in, &iteration{sim: late}); len(bad) != 1 || !strings.Contains(bad[0], "Theorem 2") {
		t.Errorf("delay 33 > 32 not reported as a Theorem 2 violation: %v", bad)
	}
	cube := &inputs{n: 1<<15 - 1, d: 1}
	fat := simStats{receivers: cube.n, slotsUsed: 19, worstDelay: 17, worstBuffer: 3, complete: true}
	bad := verifyCube(cube, &iteration{sim: fat, stderr: []byte("streamsim: check: hypercube(d=1) ok (worst delay 15, worst buffer 2)\n")})
	if len(bad) != 2 {
		t.Errorf("buffer 3 and delay 17 > k+1 = 16 should be two violations: %v", bad)
	}
	if bad := verifyCube(cube, &iteration{sim: simStats{worstBuffer: 2, worstDelay: 15, complete: true}}); len(bad) != 1 || !strings.Contains(bad[0], "check") {
		t.Errorf("a missing check line must be the one violation: %v", bad)
	}
	if bad := verifyDense(in, &iteration{}); len(bad) == 0 {
		t.Error("an empty text report passed")
	}
}

func TestChildDeadlineIsAFailureNotAPanic(t *testing.T) {
	c := runChild("sleep", t.TempDir(), 100*time.Millisecond, "5")
	if c.err == nil || !strings.Contains(c.err.Error(), "deadline") {
		t.Errorf("a child outliving its deadline returned err=%v", c.err)
	}
	if c := runChild("false", t.TempDir(), time.Second); c.err == nil {
		t.Error("a non-zero exit was not reported")
	}
	if c := runChild("/no/such/binary", t.TempDir(), time.Second); c.err == nil {
		t.Error("a spawn failure was not reported")
	}
}

// TestBenchmarkJSONMatchesCode keeps the contract file and the code's
// metric and workload tables from drifting apart.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var doc struct {
		Paths     []string
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the code %q", i, doc.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, the contract allows 200", w.name, len(w.why))
		}
	}
	want := append(append([]metricDef(nil), endToEnd...), perLayer...)
	got := append(append([]metric(nil), doc.EndToEnd...), doc.PerLayer...)
	if len(doc.EndToEnd) != contractEndToEnd || len(got) != len(want) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the code %d+%d",
			len(doc.EndToEnd), len(doc.PerLayer), contractEndToEnd, len(want)-contractEndToEnd)
	}
	for i, d := range want {
		better := "lower"
		if d.higher {
			better = "higher"
		}
		m := got[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != better {
			t.Errorf("metric %d: BENCHMARK.json has %+v, the code %+v", i, m, d)
		}
		if i < contractEndToEnd && (m.Bound == nil || *m.Bound != d.bound) {
			t.Errorf("%s: bound differs between BENCHMARK.json and the code (%v)", d.name, d.bound)
		}
	}
}

// TestSmoke drives the whole harness end to end at 1/50 size: build the
// CLIs, every workload once, both passes, every check, the output file.
func TestSmoke(t *testing.T) {
	outPath := filepath.Join(t.TempDir(), "smoke.json")
	tracePath := filepath.Join(t.TempDir(), "spans.json")
	var out, errb bytes.Buffer
	if code := run([]string{"-smoke", "-seed", "3", "-out", outPath, "-trace-out", tracePath}, &out, &errb); code != 0 {
		t.Fatalf("smoke run exited %d\n%s\n%s", code, out.String(), errb.String())
	}
	rf, err := readRunFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(rf.Workloads) != len(workloads) || rf.Machine.NProc == 0 || rf.Machine.GoVersion == "" {
		t.Fatalf("output file is incomplete: %d workloads, machine %+v", len(rf.Workloads), rf.Machine)
	}
	for _, res := range rf.Workloads {
		if res.Failed != 0 || res.Attempted == 0 || res.EndToEnd["failed_share"].Value != 0 {
			t.Errorf("%s: attempted %d, failed %d: %v", res.Name, res.Attempted, res.Failed, res.Failures)
		}
		for _, d := range endToEnd {
			if _, ok := res.EndToEnd[d.name]; !ok && !(res.Name == "sweep" && (d.name == "node_slots_per_s" || d.exact && d.name != "failed_share")) {
				t.Errorf("%s: end-to-end metric %s missing", res.Name, d.name)
			}
		}
		for _, name := range []string{"spec.build_ms", "slotsim.run_ms", "slotsim.share_of_pipeline", "pipeline.total_ms", "pipeline.trace_overhead_ratio", "cli.over_pipeline_ratio"} {
			if v := res.PerLayer[name]; res.Name != "sweep" && v.Value <= 0 {
				t.Errorf("%s: per-layer metric %s = %v", res.Name, name, v.Value)
			}
		}
	}
	if v := rf.workload("sweep").PerLayer["experiments.randreg.wall_ms"]; v.Value <= 0 {
		t.Error("sweep: per-table timings missing")
	}
	if v := rf.workload("dense-long").PerLayer["slotsim.sharded_over_seq"]; v.Value <= 0 {
		t.Error("dense-long: slotsim.sharded_over_seq missing")
	}
	if v := rf.workload("churn-faulted").PerLayer["faults.inject_calls"]; v.Value <= 0 {
		t.Error("churn-faulted: the injector decorator counted nothing")
	}
	var spans []span
	data, err := os.ReadFile(tracePath)
	if err != nil || json.Unmarshal(data, &spans) != nil || len(spans) == 0 {
		t.Fatalf("span file unreadable or empty: %v", err)
	}
	// Self times of an iteration's spans must add up to its root span.
	iter0 := []span{}
	for _, s := range spans {
		if s.Workload == "cube-check" && s.Iter == 0 {
			iter0 = append(iter0, s)
		}
	}
	sum, root := 0.0, 0.0
	for name, ms := range selfTimes(iter0) {
		sum += ms
		if name == spanPipeline {
			for _, s := range iter0 {
				if s.Name == spanPipeline {
					root = s.ms()
				}
			}
		}
	}
	if root == 0 || sum < 0.999*root || sum > 1.001*root {
		t.Errorf("cube-check iteration 0: self times sum to %.4f ms, the root span is %.4f ms", sum, root)
	}
	if !strings.Contains(out.String(), "where did the time go: dense-long") {
		t.Error("the where-did-the-time-go table was not printed")
	}
}
