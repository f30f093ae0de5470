package maporder

import (
	"fmt"
	"hash"
	"io"
	"sort"
	"strings"
)

// tracer wraps the output sinks a trace writer would hold.
type tracer struct {
	h hash.Hash64
	w io.Writer
}

// emit writes one record.
func (tr *tracer) emit(k int) {
	fmt.Fprintf(tr.w, "%d\n", k)
}

// badDirect prints while ranging the map: iteration order leaks.
func badDirect(w io.Writer, m map[int]string) {
	for k, v := range m { // want `map iteration order reaches deterministic output`
		fmt.Fprintf(w, "%d=%s\n", k, v)
	}
}

// badHash folds map order into a fingerprint.
func badHash(tr *tracer, m map[int]int) {
	for k := range m { // want `map iteration order reaches deterministic output`
		tr.h.Write([]byte{byte(k)})
	}
}

// badLines is the seeded mutation the goldens caught in only 8 of 10 runs
// (trace.HypercubeBufferTrace collecting each node's line in a map): a small
// map's order often matches the golden's.
func badLines(n int) string {
	var b strings.Builder
	lines := map[int]string{}
	for id := 1; id <= n; id++ {
		lines[id] = fmt.Sprintf("N%d:", id)
	}
	for _, line := range lines { // want `map iteration order reaches deterministic output`
		fmt.Fprintln(&b, line)
	}
	return b.String()
}

// goodSorted is the sanctioned pattern: collect, sort, then emit.
func goodSorted(tr *tracer, m map[int]int) {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		tr.emit(k)
	}
}

// goodAggregate folds the map into order-independent state; no output.
func goodAggregate(m map[int]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}
