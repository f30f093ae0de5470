package randreg

import (
	"container/heap"
	"reflect"
	"sort"
	"testing"

	"streamcast/internal/core"
	"streamcast/internal/stats"
)

// refGossip is the pull/push generator this package shipped before the
// slot-log rewrite, kept as the differential reference: a fresh rng.Perm
// and a fresh counter slice per slot, an append-grown slice per slot in a
// memo, the source's holdings a branch on the slot. It shares the digraph
// with Scheme, cut into per-node rows of its own, and nothing of the
// protocol.
type refGossip struct {
	in, out  [][]int
	mode     Mode
	n, d     int
	rng      *stats.SplitMix64
	next     []core.Packet
	nextSlot core.Slot
	memo     [][]core.Transmission
}

func newRefGossip(t *testing.T, n, degree int, mode Mode, seed int64) *refGossip {
	t.Helper()
	s, err := newScheme(n, degree, mode, seed)
	if err != nil {
		t.Fatal(err)
	}
	return &refGossip{
		in: unflatten(s.g.In, degree), out: unflatten(s.g.Out, degree), mode: mode, n: n, d: degree,
		rng:  stats.NewSplitMix64(stats.NewSplitMix64(uint64(seed)).Uint64() ^ 0xA5A5A5A5A5A5A5A5),
		next: make([]core.Packet, n+1),
	}
}

func (r *refGossip) Transmissions(t core.Slot) []core.Transmission {
	for r.nextSlot <= t {
		r.generate(r.nextSlot)
		r.nextSlot++
	}
	return r.memo[t]
}

func (r *refGossip) holds(u int, p core.Packet, t core.Slot) bool {
	if u == 0 {
		return core.Slot(int(p)) <= t
	}
	return r.next[u] > p
}

func (r *refGossip) generate(t core.Slot) {
	var txs []core.Transmission
	if r.mode == Pull {
		order := r.rng.Perm(r.n)
		served := make([]int, r.n+1)
		for _, oi := range order {
			v := oi + 1
			p := r.next[v]
			u := r.in[v][r.rng.Intn(r.d)]
			if !r.holds(u, p, t) || served[u] >= 1 {
				continue
			}
			served[u]++
			txs = append(txs, core.Transmission{From: core.NodeID(u), To: core.NodeID(v), Packet: p})
		}
	} else {
		order := r.rng.Perm(r.n + 1)
		got := make([]int, r.n+1)
		for _, v := range order {
			w := r.out[v][r.rng.Intn(r.d)]
			if w == 0 {
				continue
			}
			p := r.next[w]
			if !r.holds(v, p, t) || got[w] >= 1 {
				continue
			}
			got[w]++
			txs = append(txs, core.Transmission{From: core.NodeID(v), To: core.NodeID(w), Packet: p})
		}
	}
	for _, tx := range txs {
		r.next[tx.To]++
	}
	r.memo = append(r.memo, txs)
}

// TestGossipModesMatchReference: pull and push emit, slot by slot, exactly
// the reference's transmissions — values, order, and nil for an empty slot
// (slot 0 of a push run whose source draws itself out, the slots before the
// first packet reaches anyone) — so every seeded draw landed in the same
// place. Horizons run past 192 packets; N spans 5 to a few hundred.
func TestGossipModesMatchReference(t *testing.T) {
	cases := []struct{ n, degree, slots int }{
		{5, 2, 200},
		{9, 4, 130},
		{33, 3, 200},
		{120, 3, 220},
		{400, 5, 130},
	}
	if testing.Short() {
		cases = cases[:3]
	}
	empty := 0
	for _, mode := range []Mode{Pull, Push} {
		for _, c := range cases {
			for seed := int64(1); seed <= 4; seed++ {
				s, err := newScheme(c.n, c.degree, mode, seed)
				if err != nil {
					t.Fatal(err)
				}
				ref := newRefGossip(t, c.n, c.degree, mode, seed)
				for u := core.Slot(0); u < core.Slot(c.slots); u++ {
					got, want := s.Transmissions(u), ref.Transmissions(u)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%v n=%d degree=%d seed=%d slot %d:\n got %v\nwant %v",
							mode, c.n, c.degree, seed, u, got, want)
					}
					if got == nil {
						empty++
					}
				}
			}
		}
	}
	if empty == 0 {
		t.Error("no case produced an empty slot")
	}
}

// unflatten cuts a flat table of d entries per node into one []int row per node.
func unflatten(flat []int32, d int) [][]int {
	rows := make([][]int, len(flat)/d)
	for v := range rows {
		for _, x := range flat[v*d : (v+1)*d] {
			rows[v] = append(rows[v], int(x))
		}
	}
	return rows
}

// flatten lays per-node rows end to end: the v*d+k layout of Digraph and
// latinPlan, so the reference's rows compare with them entry for entry.
func flatten(rows [][]int) []int32 {
	var flat []int32
	for _, row := range rows {
		for _, x := range row {
			flat = append(flat, int32(x))
		}
	}
	return flat
}

// The construction below is what this package shipped before its per-node
// slices became rows of one backing array and then flat int32 tables: one
// small slice per node in the coloring, the reachability check and the
// latin plan, a fresh chain slice per Kempe flip that is cleared and then
// recolored edge by edge, a boxed container/heap of latin candidates, a set
// and a sort closure per node in Neighbors, an append-grown slice per latin
// slot. Kept, like refGossip, as the differential reference for
// TestConstructionMatchesReference.

// refGraph is the reference's digraph: Out[v][k] the head of v's color-k
// out-edge, In[v][k] the tail of its color-k in-edge.
type refGraph struct {
	Nodes, D int
	Out, In  [][]int
	Seed     uint64
}

func refStronglyConnected(nodes, d int, to []int) bool {
	reach := func(forward bool) bool {
		adj := make([][]int, nodes)
		for v := 0; v < nodes; v++ {
			for j := 0; j < d; j++ {
				u := to[v*d+j]
				if forward {
					adj[v] = append(adj[v], u)
				} else {
					adj[u] = append(adj[u], v)
				}
			}
		}
		seen := make([]bool, nodes)
		seen[0] = true
		stack := []int{0}
		count := 1
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, u := range adj[v] {
				if !seen[u] {
					seen[u] = true
					count++
					stack = append(stack, u)
				}
			}
		}
		return count == nodes
	}
	return reach(true) && reach(false)
}

func refColorEdges(nodes, d int, to []int) (outc, inc [][]int) {
	outc = make([][]int, nodes)
	inc = make([][]int, nodes)
	for v := 0; v < nodes; v++ {
		outc[v] = make([]int, d)
		inc[v] = make([]int, d)
		for c := 0; c < d; c++ {
			outc[v][c], inc[v][c] = -1, -1
		}
	}
	free := func(slots []int) int {
		for c, w := range slots {
			if w == -1 {
				return c
			}
		}
		panic("randreg: no free color on a d-regular node")
	}
	type pedge struct{ tail, head, col int }
	for v := 0; v < nodes; v++ {
		for j := 0; j < d; j++ {
			u := to[v*d+j]
			a, b := free(outc[v]), free(inc[u])
			if a != b {
				var path []pedge
				x := u
				for {
					w := inc[x][a]
					if w == -1 {
						break
					}
					path = append(path, pedge{w, x, a})
					y := outc[w][b]
					if y == -1 {
						break
					}
					path = append(path, pedge{w, y, b})
					x = y
				}
				for _, e := range path {
					outc[e.tail][e.col] = -1
					inc[e.head][e.col] = -1
				}
				for _, e := range path {
					nc := a + b - e.col
					outc[e.tail][nc] = e.head
					inc[e.head][nc] = e.tail
				}
			}
			outc[v][a] = u
			inc[u][a] = v
		}
	}
	return outc, inc
}

// refDigraph is NewDigraph over the reference pieces (pairing is shared: it
// owns the seeded draws and did not change).
func refDigraph(t *testing.T, nodes, d int, seed uint64) *refGraph {
	t.Helper()
	s := seed
	for try := 0; try < redrawAttempts; try++ {
		to, ok := pairing(nodes, d, s)
		if ok && refStronglyConnected(nodes, d, to) {
			g := &refGraph{Nodes: nodes, D: d, Seed: s}
			g.Out, g.In = refColorEdges(nodes, d, to)
			return g
		}
		s = stats.NewSplitMix64(s).Uint64()
	}
	t.Fatalf("reference: no digraph for nodes=%d d=%d seed=%d", nodes, d, seed)
	return nil
}

// latinCand is one candidate of the reference latin plan: node v takes
// residue r on its color-k in-edge with the given delay. The reference
// consumes them from a container/heap, smallest (delay, v, k, r) first.
type latinCand struct {
	delay, v, k, r int
}

type candHeap []latinCand

func (h candHeap) Len() int { return len(h) }
func (h candHeap) Less(i, j int) bool {
	a, b := h[i], h[j]
	if a.delay != b.delay {
		return a.delay < b.delay
	}
	if a.v != b.v {
		return a.v < b.v
	}
	if a.k != b.k {
		return a.k < b.k
	}
	return a.r < b.r
}
func (h candHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *candHeap) Push(x interface{}) { *h = append(*h, x.(latinCand)) }
func (h *candHeap) Pop() interface{} {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

func refLatinPlan(g *refGraph) (resOf, delay [][]int, steady core.Slot) {
	nodes, d := g.Nodes, g.D
	resOf = make([][]int, nodes)
	delay = make([][]int, nodes)
	for v := 0; v < nodes; v++ {
		resOf[v] = make([]int, d)
		delay[v] = make([]int, d)
		for k := 0; k < d; k++ {
			resOf[v][k] = -1
			delay[v][k] = latinInf
		}
	}
	colorTaken := make([][]bool, nodes)
	resDone := make([][]bool, nodes)
	for v := 0; v < nodes; v++ {
		colorTaken[v] = make([]bool, d)
		resDone[v] = make([]bool, d)
	}
	h := &candHeap{}
	fanOut := func(u, r, uLag int) {
		for c := 0; c < d; c++ {
			w := g.Out[u][c]
			if w == 0 || resDone[w][r] || colorTaken[w][c] {
				continue
			}
			minSend := 0
			if u != 0 {
				minSend = uLag + 1
			}
			heap.Push(h, latinCand{delay: minSend + mod(c-r-minSend, d), v: w, k: c, r: r})
		}
	}
	for r := 0; r < d; r++ {
		fanOut(0, r, 0)
	}
	for h.Len() > 0 {
		c := heap.Pop(h).(latinCand)
		if resDone[c.v][c.r] || colorTaken[c.v][c.k] {
			continue
		}
		resDone[c.v][c.r] = true
		colorTaken[c.v][c.k] = true
		resOf[c.v][c.k] = c.r
		delay[c.v][c.k] = c.delay
		if s := core.Slot(c.delay); s > steady {
			steady = s
		}
		fanOut(c.v, c.r, c.delay)
	}
	return resOf, delay, steady
}

func refLatinSlot(g *refGraph, n int, delays [][]int, t core.Slot) []core.Transmission {
	k := int(t) % g.D
	var txs []core.Transmission
	for u := 1; u <= n; u++ {
		delay := delays[u][k]
		if delay >= latinInf {
			continue
		}
		p := t - core.Slot(delay)
		if p < 0 {
			continue
		}
		txs = append(txs, core.Transmission{
			From:   core.NodeID(g.In[u][k]),
			To:     core.NodeID(u),
			Packet: core.Packet(int(p)),
		})
	}
	return txs
}

func refNeighbors(g *refGraph, n int) map[core.NodeID][]core.NodeID {
	out := make(map[core.NodeID][]core.NodeID, n)
	for v := 1; v <= n; v++ {
		seen := map[int]bool{v: true}
		var list []core.NodeID
		for k := 0; k < g.D; k++ {
			for _, u := range []int{g.In[v][k], g.Out[v][k]} {
				if !seen[u] {
					seen[u] = true
					list = append(list, core.NodeID(u))
				}
			}
		}
		sort.Slice(list, func(i, j int) bool { return list[i] < list[j] })
		out[core.NodeID(v)] = list
	}
	return out
}

// TestConstructionMatchesReference: on three seeds × three sizes (plus a
// tight d+1-node graph, where repairs and redraws are the common case, and
// the N = 10 000, d = 3 graphs of the randreg table's trial seeds, whose Kempe
// chains are the longest) the flat-array construction yields the reference's
// accepted seed, coloring, latin plan, latin slots and neighbor lists, order
// included — the reference's rows flattened to the v*d+k layout; and the reachability test agrees with the reference's on every
// pairing the redraw chain visits, rejected ones too.
func TestConstructionMatchesReference(t *testing.T) {
	cases := []struct {
		n, degree int
		seeds     []int64
	}{
		{4, 4, []int64{1, 2, 3}},
		{40, 3, []int64{1, 2, 3}},
		{333, 4, []int64{1, 2, 3}},
		{2000, 3, []int64{1, 2, 3}},
		{10000, 3, stats.TrialSeeds(1, 3)},
	}
	for _, c := range cases {
		for _, seed := range c.seeds {
			s, err := newScheme(c.n, c.degree, Latin, seed)
			if err != nil {
				t.Fatal(err)
			}
			ref := refDigraph(t, c.n+1, c.degree, uint64(seed))
			g := s.g
			if g.Seed != ref.Seed || !reflect.DeepEqual(g.Out, flatten(ref.Out)) || !reflect.DeepEqual(g.In, flatten(ref.In)) {
				t.Fatalf("n=%d d=%d seed=%d: digraph differs from the reference", c.n, c.degree, seed)
			}
			resOf, delay, steady := refLatinPlan(ref)
			if s.plan.steady != steady || !reflect.DeepEqual(s.plan.resOf, flatten(resOf)) || !reflect.DeepEqual(s.plan.delay, flatten(delay)) {
				t.Fatalf("n=%d d=%d seed=%d: latin plan differs from the reference", c.n, c.degree, seed)
			}
			for u := core.Slot(0); u < steady+core.Slot(2*c.degree); u++ {
				if got, want := s.Transmissions(u), refLatinSlot(ref, c.n, delay, u); !reflect.DeepEqual(got, want) {
					t.Fatalf("n=%d d=%d seed=%d slot %d:\n got %v\nwant %v", c.n, c.degree, seed, u, got, want)
				}
			}
			if got, want := s.Neighbors(), refNeighbors(ref, c.n); !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d d=%d seed=%d: Neighbors differs from the reference", c.n, c.degree, seed)
			}
			chain := uint64(seed)
			for try := 0; try < 8; try++ {
				if to, ok := pairing(c.n+1, c.degree, chain); ok {
					if got, want := stronglyConnected(c.n+1, c.degree, to), refStronglyConnected(c.n+1, c.degree, to); got != want {
						t.Fatalf("n=%d d=%d seed %d: stronglyConnected = %v, reference %v", c.n, c.degree, chain, got, want)
					}
				}
				chain = stats.NewSplitMix64(chain).Uint64()
			}
		}
	}
}
