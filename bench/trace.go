package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// span is one timed call into a layer's public function, recorded from the
// benchmark's side of the call. Spans of one pipeline iteration share Iter;
// Parent is the index of the enclosing span, -1 for the iteration's root.
type span struct {
	Workload string `json:"workload"`
	Iter     int    `json:"iter"`
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	Allocs   uint64 `json:"allocs"`
	Bytes    uint64 `json:"alloc_bytes"`
}

func (s span) ms() float64 { return float64(s.EndNs-s.StartNs) / 1e6 }

// tracer keeps spans in memory; they are written out once, at exit. With
// on=false every call is a plain function call — that run is the baseline
// the tracing overhead is measured against.
type tracer struct {
	on       bool
	workload string
	iter     int
	t0       time.Time
	spans    []span
	stack    []int
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

// do runs fn inside a span named name, a child of whichever span is open.
func (t *tracer) do(name string, fn func() error) error {
	if !t.on {
		return fn()
	}
	parent := -1
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	id := len(t.spans)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t.spans = append(t.spans, span{Workload: t.workload, Iter: t.iter, ID: id, Parent: parent, Name: name})
	t.stack = append(t.stack, id)
	start := time.Since(t.t0)
	err := fn()
	end := time.Since(t.t0)
	runtime.ReadMemStats(&m1)
	t.stack = t.stack[:len(t.stack)-1]
	s := &t.spans[id]
	s.StartNs, s.EndNs = int64(start), int64(end)
	s.Allocs, s.Bytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	return err
}

// iterSpans returns the spans of one iteration.
func (t *tracer) iterSpans(iter int) []span {
	var out []span
	for _, s := range t.spans {
		if s.Iter == iter {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes maps span name → self time in ms for one iteration's spans: a
// span's duration minus the part of it its child spans cover.
func selfTimes(spans []span) map[string]float64 {
	self := map[string]float64{}
	byID := map[int]string{}
	for _, s := range spans {
		self[s.Name] += s.ms()
		byID[s.ID] = s.Name
	}
	for _, s := range spans {
		if parent, ok := byID[s.Parent]; ok {
			self[parent] -= s.ms()
		}
	}
	return self
}

// layerOrder is the pipeline's call order, for the printed table.
var layerOrder = []string{
	spanParse, spanBuild, spanCheck, spanCompile, spanRun, spanChurnReport,
	spanNeighbors, spanFlush, spanProm, spanBuildReport, spanWriteJSON, spanPipeline,
}

// printWhere prints the "where did the time go" table of one workload:
// per layer, warm self time, its share of the warm pipeline total, and the
// cold (first-iteration) self time beside it.
func printWhere(w io.Writer, name string, cold map[string]float64, warm []map[string]float64) {
	warmMed := map[string]float64{}
	total := 0.0
	for _, layer := range layerOrder {
		var xs []float64
		for _, it := range warm {
			xs = append(xs, it[layer])
		}
		warmMed[layer] = median(xs)
		total += warmMed[layer]
	}
	fmt.Fprintf(w, "where did the time go: %s (in-process pipeline, self times)\n", name)
	fmt.Fprintf(w, "  %-28s %12s %8s %12s\n", "layer", "warm ms", "share", "cold ms")
	for _, layer := range layerOrder {
		if _, ran := cold[layer]; !ran {
			continue
		}
		label := layer
		if layer == spanPipeline {
			label = "(unattributed: sinks, text)"
		}
		fmt.Fprintf(w, "  %-28s %12.3f %7.1f%% %12.3f\n", label, warmMed[layer], 100*warmMed[layer]/total, cold[layer])
	}
	fmt.Fprintf(w, "  %-28s %12.3f %7.1f%%\n", "sum of self times", total, 100.0)
}

// writeSpans writes every recorded span as one JSON array.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
