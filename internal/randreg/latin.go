package randreg

import "streamcast/internal/core"

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
// with period d after a warmup of the largest delay.

// latinInf marks an unassigned delay; kept far below overflow so +1
// arithmetic stays safe.
const latinInf = 1 << 30

// latinPlan is the per-edge delay/residue assignment of the latin mode.
type latinPlan struct {
	// resOf[u*d+k] is the packet residue assigned to u's color-k in-edge,
	// or -1 when the greedy assignment could not serve the edge (its
	// residues were all claimed by other colors first); the run then
	// degrades to missing packets, never to a schedule violation.
	resOf []int32
	// delay[u*d+k] is the edge's delivery lag: packets p on that edge
	// arrive at slot p + delay[u*d+k]; latinInf for an unserved edge.
	delay []int32
	// steady is the largest finite delay: from that slot on every edge of
	// the plan fires each period, so the schedule is exactly periodic.
	steady core.Slot
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
//
// Candidates are consumed smallest delay first, so every accepted delay is
// final: a node's residue delay is always derived from a tail delay accepted
// strictly earlier, which rules out circular justification by construction.
// That order needs no heap, only a bucket per delay: the source's candidates
// have delays below d and every later one is published by an accepted
// candidate of a strictly smaller delay, so a delay's bucket is complete
// when the walk reaches it. Nor does the order inside a bucket matter: a
// candidate's delay is ≡ k − r (mod d), so two candidates of one delay at
// one node differ in both color and residue and never compete, and the
// plan is the one a (delay, v, k, r) heap yields. The same congruence makes
// a bucket entry just the in-edge v·d + k: its residue is (k − delay) mod d.
func newLatinPlan(g *Digraph) *latinPlan {
	nodes, d := g.Nodes, g.D
	p := &latinPlan{
		resOf: make([]int32, nodes*d),
		delay: make([]int32, nodes*d),
	}
	for e := range p.resOf {
		p.resOf[e], p.delay[e] = -1, latinInf
	}

	// colorTaken[v·d+k] / resDone[v·d+r] make acceptance first come, first
	// served per node.
	colorTaken := make([]bool, nodes*d)
	resDone := make([]bool, nodes*d)

	var buckets [][]int // buckets[delay] holds the candidates' in-edges v·d + k
	// fanOut publishes u's new supply of residue r to every head of u's
	// out-edges whose color is still unclaimed there. minSend is the first
	// slot offset at which the tail can forward: the source holds packet p
	// from slot p (offset 0), a receiver strictly after it received it.
	fanOut := func(u, r, uLag int) {
		for c, head := range g.Out[u*d : (u+1)*d] {
			w := int(head)
			if w == 0 || resDone[w*d+r] || colorTaken[w*d+c] {
				continue
			}
			minSend := 0
			if u != 0 {
				minSend = uLag + 1
			}
			delay := minSend + mod(c-r-minSend, d)
			for len(buckets) <= delay {
				buckets = append(buckets, nil)
			}
			buckets[delay] = append(buckets[delay], w*d+c)
		}
	}
	for r := 0; r < d; r++ {
		fanOut(0, r, 0)
	}
	for delay := 0; delay < len(buckets); delay++ {
		bucket := buckets[delay]
		buckets[delay] = nil
		for _, e := range bucket {
			v, k, r := e/d, e%d, mod(e%d-delay, d)
			if resDone[v*d+r] || colorTaken[v*d+k] {
				continue
			}
			resDone[v*d+r] = true
			colorTaken[v*d+k] = true
			p.resOf[e] = int32(r)
			p.delay[e] = int32(delay)
			p.steady = core.Slot(delay)
			fanOut(v, r, delay)
		}
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
