// Package randreg implements streaming schemes over seeded random regular
// digraphs — the probabilistic counterpart of the paper's deterministic
// constructions. Kim & Srikant (arXiv:1308.6807) show random regular
// digraphs achieve the optimal streaming capacity and delay; Ying, Srikant
// & Shakkottai (arXiv:0909.0763) give the matching asymptotic minimum-
// buffer behavior. The package offers three schedule modes over one graph:
//
//   - latin: a deterministic phase schedule derived from a proper
//     d-edge-coloring; exactly periodic (period d) once MaxDelay slots have
//     passed.
//   - pull: gossip-style in-order pull — each node requests its first
//     missing packet from a uniformly random in-neighbor.
//   - push: the symmetric out-neighbor push.
//
// Pull and push are simulation state, not closed forms: the generator keeps
// only its current O(N) state and builds slots in order into one reused
// buffer. A read of an earlier slot rewinds — re-seeds the protocol stream
// and regenerates from slot 0 — so replays and out-of-order reads observe
// one schedule without the schedule ever being stored.
//
// Every bit of randomness derives from one splitmix64 seed, so runs are
// exactly reproducible; guarantees are probabilistic (best effort), and the
// differential/property test harness, not a symbolic proof, is what makes
// the family trustworthy.
package randreg

import (
	"fmt"
	"slices"

	"streamcast/internal/core"
	"streamcast/internal/stats"
)

// Mode selects the schedule generated over the digraph.
type Mode int

const (
	// Latin is the periodic phase schedule from the edge coloring.
	Latin Mode = iota
	// Pull requests the first missing packet from a random in-neighbor.
	Pull
	// Push offers a random out-neighbor its first missing packet.
	Push
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case Latin:
		return "latin"
	case Pull:
		return "pull"
	case Push:
		return "push"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ParseMode maps a mode word to its constant.
func ParseMode(v string) (Mode, error) {
	switch v {
	case "latin":
		return Latin, nil
	case "pull":
		return Pull, nil
	case "push":
		return Push, nil
	default:
		return 0, fmt.Errorf("randreg: unknown mode %q (want latin, pull, or push)", v)
	}
}

// Scheme is a streaming scheme over a random d-regular digraph on the
// source plus n receivers. It implements core.Scheme.
type Scheme struct {
	g    *Digraph
	mode Mode
	n    int // receivers; digraph node v is core.NodeID v
	d    int

	// Latin mode: the precomputed edge plan.
	plan *latinPlan

	// Pull/push modes: stateful generation in slot order. gen is the number
	// of slots generated so far and txs holds the last of them; start is the
	// protocol stream's initial state, which rewind restores. next[v] is the
	// holdings frontier: in-order transfer means node v holds exactly the
	// packets below next[v], and the live source's next[0] is the current
	// slot + 1. order and busy are per-slot scratch, reused so a slot
	// allocates nothing once warm; txs is latinSlot's output buffer too.
	rng, start stats.SplitMix64
	gen        core.Slot
	next       []core.Packet
	order      []int
	busy       []bool
	txs        []core.Transmission
}

var _ core.Scheme = (*Scheme)(nil)

// New builds a randreg scheme over g — node 0 the source, nodes
// 1..g.Nodes−1 the receivers — in the requested schedule mode. The graph is
// the caller's draw (NewDigraph), so one graph can serve all three modes of a
// seed; seed feeds the pull and push protocols' own stream. Runs are
// deterministic in (g, mode, seed), and the scheme never writes to g.
func New(g *Digraph, mode Mode, seed int64) (*Scheme, error) {
	n, degree := g.Nodes-1, g.D
	s := &Scheme{g: g, mode: mode, n: n, d: degree}
	switch mode {
	case Latin:
		s.plan = newLatinPlan(g)
		// Sized for the steady state, where every planned color-k edge fires.
		s.txs = make([]core.Transmission, 0, n)
	case Pull, Push:
		// The protocol stream is split from the construction stream so the
		// graph for a given seed never depends on the mode.
		s.start = *stats.NewSplitMix64(stats.NewSplitMix64(uint64(seed)).Uint64() ^ 0xA5A5A5A5A5A5A5A5)
		s.rng = s.start
		s.next = make([]core.Packet, n+1)
		s.order = make([]int, n+1)
		s.busy = make([]bool, n+1)
	default:
		return nil, fmt.Errorf("randreg: invalid mode %d", int(mode))
	}
	return s, nil
}

// Name implements core.Scheme.
func (s *Scheme) Name() string {
	return fmt.Sprintf("randreg(%s,d=%d)", s.mode, s.d)
}

// NumReceivers implements core.Scheme.
func (s *Scheme) NumReceivers() int { return s.n }

// SourceCapacity implements core.Scheme. The source participates as an
// ordinary degree-d node and transmits at most one packet per slot in every
// mode — the per-node upload budget of the optimal-capacity model.
func (s *Scheme) SourceCapacity() int { return 1 }

// Mode returns the schedule mode.
func (s *Scheme) Mode() Mode { return s.mode }

// Neighbors implements core.Scheme: each receiver's protocol-maintenance
// set is its in- and out-neighborhood in the digraph.
func (s *Scheme) Neighbors() map[core.NodeID][]core.NodeID {
	out := make(map[core.NodeID][]core.NodeID, s.n)
	// A node has d in- and d out-neighbors, none of them itself (the digraph
	// is simple), so every list fits a 2d-entry row of one array.
	rows := make([]core.NodeID, s.n*2*s.d)
	for v := 1; v <= s.n; v++ {
		list := rows[(v-1)*2*s.d : (v-1)*2*s.d : v*2*s.d]
		for e := v * s.d; e < (v+1)*s.d; e++ {
			list = core.AppendNeighbor(list, core.NodeID(s.g.In[e]))
			list = core.AppendNeighbor(list, core.NodeID(s.g.Out[e]))
		}
		slices.Sort(list)
		out[core.NodeID(v)] = list
	}
	return out
}

// MaxDelay returns the latin plan's largest edge delay (0 for the gossip
// modes) — the analytic worst-case start delay of the periodic schedule, and
// the slot from which every edge of the plan fires once per d slots.
func (s *Scheme) MaxDelay() core.Slot {
	if s.mode == Latin {
		return s.plan.steady
	}
	return 0
}

// Transmissions implements core.Scheme. In the pull and push modes slots
// are generated forward to t; a read of a slot before the last one generated
// rewinds first. The slice is the reused slot buffer, valid until the next
// call, and nil for a slot with no transmissions.
func (s *Scheme) Transmissions(t core.Slot) []core.Transmission {
	if t < 0 {
		return nil
	}
	if s.mode == Latin {
		return s.latinSlot(t)
	}
	if t < s.gen-1 {
		s.rewind()
	}
	for ; s.gen <= t; s.gen++ {
		s.generate(s.gen)
	}
	if len(s.txs) == 0 {
		return nil
	}
	return s.txs[:len(s.txs):len(s.txs)]
}

// rewind returns the pull or push generator to its state before slot 0:
// the protocol stream re-seeded, every frontier cleared. The schedule is a
// deterministic function of that state, so regenerating replays it exactly.
func (s *Scheme) rewind() {
	s.rng = s.start
	clear(s.next)
	s.gen = 0
}

// latinSlot emits phase k = t mod d: every live color-k edge (v→u) delivers
// packet t − delay(e), which by construction is ≡ its residue (mod d) and
// already held by the tail.
func (s *Scheme) latinSlot(t core.Slot) []core.Transmission {
	k := int(t) % s.d
	txs := s.txs[:0]
	for u := 1; u <= s.n; u++ {
		e := u*s.d + k
		delay := s.plan.delay[e]
		if delay >= latinInf {
			continue
		}
		p := t - core.Slot(delay)
		if p < 0 {
			continue
		}
		txs = append(txs, core.Transmission{
			From:   core.NodeID(s.g.In[e]),
			To:     core.NodeID(u),
			Packet: core.Packet(int(p)),
		})
	}
	s.txs = txs
	return txs[:len(txs):len(txs)]
}

// generate rolls the pull or push protocol forward by one slot. All
// decisions are made against the pre-slot state, one random draw per node
// in a seeded random priority order, so the schedule is a deterministic
// function of the seed alone. A node u can serve packet p when next[u] > p:
// receivers hold the in-order prefix below their frontier, and the live
// source, whose frontier is set to t+1 here, holds the packets up to slot t.
func (s *Scheme) generate(t core.Slot) {
	d, next, busy := s.d, s.next, s.busy
	next[0] = core.Packet(int(t) + 1)
	clear(busy)
	txs := s.txs[:0]
	if s.mode == Pull {
		order := s.order[:s.n]
		s.rng.PermInto(order)
		for _, oi := range order {
			v := oi + 1
			p := next[v]
			u := s.g.In[v*d+s.rng.Intn(d)]
			if next[u] <= p || busy[u] {
				continue
			}
			busy[u] = true // u serves one request per slot
			txs = append(txs, core.Transmission{From: core.NodeID(u), To: core.NodeID(v), Packet: p})
		}
	} else {
		order := s.order[:s.n+1]
		s.rng.PermInto(order)
		for _, v := range order {
			w := s.g.Out[v*d+s.rng.Intn(d)]
			if w == 0 {
				continue // the source needs nothing pushed to it
			}
			p := next[w]
			if next[v] <= p || busy[w] {
				continue
			}
			busy[w] = true // w accepts one push per slot
			txs = append(txs, core.Transmission{From: core.NodeID(v), To: core.NodeID(w), Packet: p})
		}
	}
	for _, tx := range txs {
		next[tx.To]++
	}
	s.txs = txs
}
