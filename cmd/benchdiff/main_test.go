package main

import (
	"regexp"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: streamcast
BenchmarkEngineSequentialVsParallel/sequential-8         	     168	   7135434 ns/op	11116248 B/op	    6668 allocs/op
BenchmarkEngineSequentialVsParallel/parallel-2-8         	      98	  12112340 ns/op	11240012 B/op	    7120 allocs/op
BenchmarkFig4WorstCaseDelay-8                            	      76	  15711362 ns/op	        18.00 delay_d2_N2000	14630736 B/op	   15134 allocs/op
PASS
ok  	streamcast	4.521s
BenchmarkFig4WorstCaseDelay-8                            	     100	  15000000 ns/op	        18.00 delay_d2_N2000	14630736 B/op	   15134 allocs/op
BenchmarkFig4WorstCaseDelay-8                            	      50	  19000000 ns/op	        18.00 delay_d2_N2000	14630736 B/op	   15134 allocs/op
`

func TestParseBench(t *testing.T) {
	benches, err := parseBench(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	if len(benches) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(benches))
	}
	byName := make(map[string]Benchmark)
	for _, b := range benches {
		byName[b.Name] = b
	}
	seq, ok := byName["BenchmarkEngineSequentialVsParallel/sequential"]
	if !ok {
		t.Fatalf("sequential benchmark missing (procs suffix not trimmed?): %v", byName)
	}
	if seq.Iterations != 168 || seq.NsPerOp != 7135434 || seq.BytesPerOp != 11116248 || seq.AllocsPerOp != 6668 {
		t.Errorf("sequential parsed as %+v", seq)
	}
	fig4 := byName["BenchmarkFig4WorstCaseDelay"]
	if got := fig4.Metrics["delay_d2_N2000"]; got != 18 {
		t.Errorf("custom metric delay_d2_N2000 = %v, want 18", got)
	}
	if fig4.Iterations != 100 || fig4.NsPerOp != 15000000 {
		t.Errorf("a row measured three times parsed as %+v, want its fastest result (100 iterations)", fig4)
	}
	for i := 1; i < len(benches); i++ {
		if benches[i-1].Name > benches[i].Name {
			t.Errorf("benchmarks not sorted: %q > %q", benches[i-1].Name, benches[i].Name)
		}
	}
}

func TestTrimProcs(t *testing.T) {
	cases := map[string]string{
		"BenchmarkFoo-8":          "BenchmarkFoo",
		"BenchmarkFoo/parallel-2": "BenchmarkFoo/parallel", // trailing digits always trimmed
		"BenchmarkFoo":            "BenchmarkFoo",
		"BenchmarkFoo-bar":        "BenchmarkFoo-bar",
	}
	for in, want := range cases {
		if got := trimProcs(in); got != want {
			t.Errorf("trimProcs(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestCompareThreshold(t *testing.T) {
	old := &Snapshot{Benchmarks: []Benchmark{
		{Name: "A", NsPerOp: 1000, AllocsPerOp: 100},
		{Name: "B", NsPerOp: 1000, AllocsPerOp: 100},
		{Name: "C", NsPerOp: 1000, AllocsPerOp: 100},
		{Name: "D", NsPerOp: 1000, BytesPerOp: 4096, AllocsPerOp: 4},
		{Name: "Slow/E", NsPerOp: 1000, BytesPerOp: 4096, AllocsPerOp: 4},
		{Name: "Gone", NsPerOp: 1000},
	}}
	cur := &Snapshot{Benchmarks: []Benchmark{
		{Name: "A", NsPerOp: 1500, AllocsPerOp: 100},                      // ns/op regression
		{Name: "B", NsPerOp: 400, AllocsPerOp: 100},                       // improvement
		{Name: "C", NsPerOp: 1350, AllocsPerOp: 130},                      // ns past the memory threshold but within the time threshold, allocs regressed
		{Name: "D", NsPerOp: 1000, BytesPerOp: 8192, AllocsPerOp: 5},      // bytes regressed; 4 -> 5 allocs is exactly the threshold
		{Name: "Slow/E", NsPerOp: 9000, BytesPerOp: 8192, AllocsPerOp: 4}, // memory-only row: its ns/op is not compared
	}}
	regs, imps, missing := compare(old, cur, 0.25, 0.4, regexp.MustCompile("^Slow/"))
	want := []regression{
		{"A", "ns/op", 1000, 1500},
		{"C", "allocs/op", 100, 130},
		{"D", "B/op", 4096, 8192},
		{"Slow/E", "B/op", 4096, 8192},
	}
	if len(regs) != len(want) {
		t.Fatalf("got %d regressions (%v), want %d", len(regs), regs, len(want))
	}
	for i, w := range want {
		if regs[i] != w {
			t.Errorf("regression %d = %+v, want %+v", i, regs[i], w)
		}
	}
	if len(imps) != 1 || imps[0].name != "B" {
		t.Errorf("improvements = %v, want just B", imps)
	}
	if len(missing) != 1 || missing[0] != "Gone" {
		t.Errorf("missing = %v, want [Gone]", missing)
	}
	if regs, _, _ := compare(old, cur, 0.25, 0.4, nil); len(regs) != len(want)+1 {
		t.Errorf("without -memory-only: %d regressions (%v), want Slow/E's ns/op as well", len(regs), regs)
	}
}
