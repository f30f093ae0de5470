package randreg

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
)

// checkRegular asserts the structural contract of an accepted digraph:
// in-degree = out-degree = d at every node, no self-loops, no multi-edges,
// and a proper coloring (every color class is a permutation with In the
// per-color inverse of Out). Both tables are flat rows of D, node v's colors
// at v*D .. v*D+D-1.
func checkRegular(t *testing.T, g *Digraph) {
	t.Helper()
	if len(g.Out) != g.Nodes*g.D || len(g.In) != g.Nodes*g.D {
		t.Fatalf("Out/In hold %d/%d entries, want %d nodes × %d colors", len(g.Out), len(g.In), g.Nodes, g.D)
	}
	for v := 0; v < g.Nodes; v++ {
		heads := map[int]bool{}
		for k := 0; k < g.D; k++ {
			u := int(g.Out[v*g.D+k])
			if u < 0 || u >= g.Nodes {
				t.Fatalf("node %d: color-%d head %d out of range", v, k, u)
			}
			if u == v {
				t.Fatalf("node %d: self-loop on color %d", v, k)
			}
			if heads[u] {
				t.Fatalf("node %d: multi-edge to %d", v, u)
			}
			heads[u] = true
			if int(g.In[u*g.D+k]) != v {
				t.Fatalf("color %d: In is not the inverse of Out at edge %d->%d", k, v, u)
			}
		}
	}
	// Each color class must be a permutation: d*Nodes edges with In the
	// inverse of Out per color already implies it, but count in-degrees
	// independently as a cross-check.
	indeg := make([]int, g.Nodes)
	for v := 0; v < g.Nodes; v++ {
		for k := 0; k < g.D; k++ {
			indeg[g.Out[v*g.D+k]]++
		}
	}
	for v, c := range indeg {
		if c != g.D {
			t.Fatalf("node %d: in-degree %d, want %d", v, c, g.D)
		}
	}
}

// TestDigraphRegularity sweeps the paper's parameter ranges: every accepted
// graph is simple, d-regular, properly colored, and strongly connected.
func TestDigraphRegularity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 40; i++ {
		d := rng.Intn(5) + 2
		nodes := d + 2 + rng.Intn(200)
		seed := rng.Uint64()
		g, err := NewDigraph(nodes, d, seed)
		if err != nil {
			t.Fatalf("nodes=%d d=%d seed=%d: %v", nodes, d, seed, err)
		}
		checkRegular(t, g)
		heads := make([]int, len(g.Out))
		for e, u := range g.Out {
			heads[e] = int(u)
		}
		if !stronglyConnected(nodes, d, heads) {
			t.Fatalf("nodes=%d d=%d seed=%d: accepted graph is not strongly connected", nodes, d, seed)
		}
	}
}

// TestDigraphTightSizes covers the smallest admissible graphs, where the
// simplicity repair has the least headroom (nodes = d+1 forces the
// complete digraph).
func TestDigraphTightSizes(t *testing.T) {
	for d := 2; d <= 5; d++ {
		for nodes := d + 1; nodes <= d+3; nodes++ {
			g, err := NewDigraph(nodes, d, uint64(31*d+nodes))
			if err != nil {
				t.Fatalf("nodes=%d d=%d: %v", nodes, d, err)
			}
			checkRegular(t, g)
		}
	}
}

// TestDigraphRejectsBadParams: degree below 2 and node counts too small for
// a simple d-regular digraph are errors, not panics or bad graphs.
func TestDigraphRejectsBadParams(t *testing.T) {
	if _, err := NewDigraph(10, 1, 1); err == nil {
		t.Fatal("degree 1 accepted")
	}
	if _, err := NewDigraph(3, 3, 1); err == nil {
		t.Fatal("3 nodes accepted for a 3-regular digraph")
	}
}

// TestDigraphDeterministic: equal seeds give bit-identical graphs (the
// accepted retry seed included); different seeds give different graphs.
func TestDigraphDeterministic(t *testing.T) {
	a, err := NewDigraph(60, 3, 12345)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewDigraph(60, 3, 12345)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("equal seeds produced different digraphs")
	}
	c, err := NewDigraph(60, 3, 54321)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Out, c.Out) {
		t.Fatal("different seeds produced identical digraphs")
	}
}

// TestDigraphDeterministicAcrossWorkers builds the same seeded graph from
// many concurrent goroutines — the construction shares no global state, so
// every worker must produce a bit-identical result no matter the
// interleaving.
func TestDigraphDeterministicAcrossWorkers(t *testing.T) {
	ref, err := NewDigraph(120, 4, 99)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	got := make([]*Digraph, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w], errs[w] = NewDigraph(120, 4, 99)
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		if !reflect.DeepEqual(ref, got[w]) {
			t.Fatalf("worker %d produced a different graph for the same seed", w)
		}
	}
}

// TestDigraphQuickProperties drives the builder through testing/quick:
// arbitrary (size, degree, seed) draws within the supported range always
// yield simple regular colored graphs.
func TestDigraphQuickProperties(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 25,
		Rand:     rand.New(rand.NewSource(11)),
	}
	prop := func(nRaw, dRaw uint8, seed uint64) bool {
		d := 2 + int(dRaw)%4
		nodes := d + 1 + int(nRaw)
		g, err := NewDigraph(nodes, d, seed)
		if err != nil {
			return false
		}
		for v := 0; v < nodes; v++ {
			heads := map[int]bool{}
			for k := 0; k < d; k++ {
				u := int(g.Out[v*d+k])
				if u == v || heads[u] || int(g.In[u*d+k]) != v {
					return false
				}
				heads[u] = true
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}
