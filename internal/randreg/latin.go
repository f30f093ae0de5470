package randreg

import (
	"container/heap"

	"streamcast/internal/core"
)

// The latin schedule mode turns the colored digraph into an exactly
// periodic broadcast schedule, the structured counterpart of the pull/push
// gossip modes. At slot t every node fires its color-(t mod d) out-edge, so
// each color class — a permutation — gives every node send and receive load
// at most 1 per slot. Each node's d in-edges are matched to the d packet
// residues mod d: the color-k in-edge assigned residue r carries packets
// p ≡ r (mod d), each delivered at slot p + delay(e) with
// delay(e) ≡ k − r (mod d), so deliveries land exactly on the edge's firing
// phase. delay(e) is strictly larger than the tail's own delay for that
// residue (holds-before-forward), which makes the whole schedule periodic
// with period d after a warmup of the largest delay — the property
// core.CompileSchedule verifies and exploits.

// latinInf marks an unassigned delay; kept far below overflow so +1
// arithmetic stays safe.
const latinInf = 1 << 30

// latinPlan is the per-edge delay/residue assignment of the latin mode.
type latinPlan struct {
	// resOf[u][k] is the packet residue assigned to u's color-k in-edge,
	// or -1 when the greedy assignment could not serve the edge (its
	// residues were all claimed by other colors first); the run then
	// degrades to missing packets, never to a schedule violation.
	resOf [][]int
	// delay[u][k] is the edge's delivery lag: packets p on that edge
	// arrive at slot p + delay[u][k].
	delay [][]int
	// steady is the largest finite delay: from that slot on every edge of
	// the plan fires each period, so the schedule is exactly periodic.
	steady core.Slot
}

// latinCand is one candidate assignment: node v takes residue r on its
// color-k in-edge with the given delay. Candidates are consumed smallest
// delay first (ties broken on v, k, r), so every accepted delay is final:
// a node's residue delay is always derived from a tail delay accepted
// strictly earlier, which rules out circular justification by construction.
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

// newLatinPlan assigns residues to in-edges greedily by earliest feasible
// delivery delay, Dijkstra style. An edge (u → v, color k) becomes a
// candidate for residue r the moment its tail u can supply residue-r
// packets (the source supplies every residue from slot p itself); the
// candidate's delay is the smallest value ≡ k − r (mod d) that respects
// holds-before-forward. Accepted assignments are permanent — each node
// pairs residues with colors first come, first served — so delays are
// exact, mutually consistent, and minimal in the earliest-first greedy
// order. A (node, residue) pair is dropped only when every compatible
// color was claimed by another residue first, which on the random regular
// digraphs this package accepts is a rare local event, not the common case.
func newLatinPlan(g *Digraph) *latinPlan {
	nodes, d := g.Nodes, g.D
	p := &latinPlan{
		resOf: intRows(nodes, d, -1),
		delay: intRows(nodes, d, latinInf),
	}

	// colorTaken[v·d+k] / resDone[v·d+r] make acceptance first come, first
	// served per node.
	colorTaken := make([]bool, nodes*d)
	resDone := make([]bool, nodes*d)

	h := &candHeap{}
	// fanOut publishes u's new supply of residue r to every head of u's
	// out-edges whose color is still unclaimed there. minSend is the first
	// slot offset at which the tail can forward: the source holds packet p
	// from slot p (offset 0), a receiver strictly after it received it.
	fanOut := func(u, r, uLag int) {
		for c, w := range g.Out[u] {
			if w == 0 || resDone[w*d+r] || colorTaken[w*d+c] {
				continue
			}
			minSend := 0
			if u != 0 {
				minSend = uLag + 1
			}
			heap.Push(h, latinCand{
				delay: minSend + mod(c-r-minSend, d),
				v:     w, k: c, r: r,
			})
		}
	}
	for r := 0; r < d; r++ {
		fanOut(0, r, 0)
	}
	for h.Len() > 0 {
		c := heap.Pop(h).(latinCand)
		if resDone[c.v*d+c.r] || colorTaken[c.v*d+c.k] {
			continue
		}
		resDone[c.v*d+c.r] = true
		colorTaken[c.v*d+c.k] = true
		p.resOf[c.v][c.k] = c.r
		p.delay[c.v][c.k] = c.delay
		if s := core.Slot(c.delay); s > p.steady {
			p.steady = s
		}
		fanOut(c.v, c.r, c.delay)
	}
	return p
}

// mod returns a % m normalized into [0, m).
func mod(a, m int) int {
	a %= m
	if a < 0 {
		a += m
	}
	return a
}
