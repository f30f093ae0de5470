package randreg

import (
	"fmt"

	"streamcast/internal/stats"
)

// Digraph is a simple d-regular digraph on nodes 0..Nodes-1 (node 0 is the
// stream source) carrying a proper d-edge-coloring: Out[v][k] is the head
// of v's color-k out-edge and In[v][k] the tail of its color-k in-edge.
// Regularity makes every color class a permutation of the node set, which
// is what the latin schedule mode exploits: at slot t every node fires its
// color-(t mod d) out-edge, so per-slot send and receive load is exactly 1.
type Digraph struct {
	// Nodes is the node count (source included).
	Nodes int
	// D is the in- and out-degree of every node.
	D int
	// Out[v][k] is the head of v's color-k out-edge.
	Out [][]int
	// In[v][k] is the tail of v's color-k in-edge; In is the per-color
	// inverse of Out.
	In [][]int
	// Seed is the splitmix64 state that produced the accepted pairing,
	// after simplicity repair and connectivity retries. Equal NewDigraph
	// seeds always yield equal accepted Seeds (the retry chain is part of
	// the deterministic derivation).
	Seed uint64
}

// Construction limits. A uniform stub pairing is simple with probability
// ~e^{-d-d^2/2} only, so rejection-by-resampling stalls already at d=6;
// instead conflicting edges are repaired by random head switches (expected
// O(conflicts) switches), and only pathological pairings or disconnected
// graphs trigger a full redraw under the next derived seed.
const (
	repairRounds   = 200
	redrawAttempts = 64
)

// NewDigraph builds a uniformly random simple d-regular digraph on `nodes`
// nodes, deterministically derived from the splitmix64 seed, rejecting
// (and repairing) self-loops and multi-edges and redrawing until the graph
// is strongly connected. d >= 2 because random 1-regular digraphs are
// permutations — almost never connected — and the schedule modes need an
// actual mesh.
func NewDigraph(nodes, d int, seed uint64) (*Digraph, error) {
	if d < 2 {
		return nil, fmt.Errorf("randreg: degree must be >= 2, got %d", d)
	}
	if nodes < d+1 {
		return nil, fmt.Errorf("randreg: %d nodes cannot host a simple %d-regular digraph (need >= %d)",
			nodes, d, d+1)
	}
	s := seed
	for try := 0; try < redrawAttempts; try++ {
		to, ok := pairing(nodes, d, s)
		if ok && stronglyConnected(nodes, d, to) {
			g := &Digraph{Nodes: nodes, D: d, Seed: s}
			g.colorEdges(to)
			return g, nil
		}
		// Derive the next attempt's seed from the splitmix64 stream of the
		// failed one, so the retry chain is part of the deterministic map
		// from input seed to accepted graph.
		s = stats.NewSplitMix64(s).Uint64()
	}
	return nil, fmt.Errorf("randreg: no simple strongly connected %d-regular digraph on %d nodes after %d attempts (seed %d)",
		d, nodes, redrawAttempts, seed)
}

// pairing draws a uniform stub pairing (the configuration model: out-stub i
// of the nd stubs is matched to in-stub perm[i], stub s belonging to node
// s/d), then repairs self-loops and duplicate edges by switching the heads
// of a conflicting edge and a uniformly chosen other edge. Returns the head
// list to[v*d+j] and whether a simple graph was reached.
func pairing(nodes, d int, seed uint64) ([]int, bool) {
	rng := stats.NewSplitMix64(seed)
	m := nodes * d
	perm := rng.Perm(m)
	to := make([]int, m)
	for i := 0; i < m; i++ {
		to[i] = perm[i] / d
	}
	for round := 0; round < repairRounds; round++ {
		conflicts := conflictEdges(nodes, d, to)
		if len(conflicts) == 0 {
			return to, true
		}
		for _, e := range conflicts {
			other := rng.Intn(m)
			to[e], to[other] = to[other], to[e]
		}
	}
	return nil, false
}

// conflictEdges returns the edge indices participating in a self-loop or a
// duplicate (same tail, same head) pair, in deterministic order.
func conflictEdges(nodes, d int, to []int) []int {
	var bad []int
	for v := 0; v < nodes; v++ {
		for j := 0; j < d; j++ {
			e := v*d + j
			if to[e] == v {
				bad = append(bad, e)
				continue
			}
			for i := 0; i < j; i++ {
				if to[v*d+i] == to[e] {
					bad = append(bad, e)
					break
				}
			}
		}
	}
	return bad
}

// stronglyConnected reports whether every node is reachable from node 0
// along out-edges and along reversed edges — equivalent, for a graph where
// node 0 exists, to strong connectivity of the whole digraph. to is a
// d-regular head list as pairing leaves it: every node heads exactly d edges
// (switches swap heads, so the in-degrees never move), which is what lets
// the reversed adjacency be rows of d like the forward one.
func stronglyConnected(nodes, d int, to []int) bool {
	rev := make([]int, nodes*d)
	fill := make([]int, nodes)
	for e, u := range to {
		rev[u*d+fill[u]] = e / d
		fill[u]++
	}
	seen := make([]bool, nodes)
	stack := make([]int, 0, nodes)
	reach := func(adj []int) bool {
		clear(seen)
		seen[0] = true
		stack = append(stack[:0], 0)
		count := 1
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, u := range adj[v*d : (v+1)*d] {
				if !seen[u] {
					seen[u] = true
					count++
					stack = append(stack, u)
				}
			}
		}
		return count == nodes
	}
	return reach(to) && reach(rev)
}

// intRows returns nodes rows of d ints, every entry set to fill, cut from one
// backing array: two allocations however many nodes. Rows are capacity-
// clamped, so an append to one cannot run into the next.
func intRows(nodes, d, fill int) [][]int {
	flat := make([]int, nodes*d)
	for i := range flat {
		flat[i] = fill
	}
	rows := make([][]int, nodes)
	for v := range rows {
		rows[v] = flat[v*d : (v+1)*d : (v+1)*d]
	}
	return rows
}

// colorEdges computes a proper d-edge-coloring of the simple d-regular
// digraph given by the head list, filling g.Out and g.In. Viewing tails and
// heads as the two sides of a d-regular bipartite graph, König's theorem
// guarantees a d-coloring; the constructive form used here inserts edges
// one at a time, flipping the maximal alternating Kempe chain when the
// tail's and head's free colors differ.
func (g *Digraph) colorEdges(to []int) {
	nodes, d := g.Nodes, g.D
	outc := intRows(nodes, d, -1) // outc[v][c] = head of v's color-c edge, -1 free
	inc := intRows(nodes, d, -1)  // inc[u][c] = tail of u's color-c edge, -1 free
	free := func(slots []int) int {
		for c, w := range slots {
			if w == -1 {
				return c
			}
		}
		panic("randreg: no free color on a d-regular node")
	}
	type pedge struct{ tail, head, col int }
	var path []pedge // the chain being flipped; one buffer for every flip
	for v := 0; v < nodes; v++ {
		for j := 0; j < d; j++ {
			u := to[v*d+j]
			a, b := free(outc[v]), free(inc[u])
			if a != b {
				// Flip the a/b alternating chain starting at head u: its
				// color-a in-edge, that tail's color-b out-edge, and so on.
				// The chain cannot reach tail v (v misses a), so a stays
				// free at v and becomes free at u.
				path = path[:0]
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
	g.Out, g.In = outc, inc
}
