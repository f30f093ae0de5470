// Package randreg implements streaming schemes over seeded random regular
// digraphs — the probabilistic counterpart of the paper's deterministic
// constructions. Kim & Srikant (arXiv:1308.6807) show random regular
// digraphs achieve the optimal streaming capacity and delay; Ying, Srikant
// & Shakkottai (arXiv:0909.0763) give the matching asymptotic minimum-
// buffer behavior. The package offers three schedule modes over one graph:
//
//   - latin: a deterministic phase schedule derived from a proper
//     d-edge-coloring; exactly periodic (period d), so it compiles via
//     core.CompileSchedule and is verifiable with check.VerifyCompiled.
//   - pull: gossip-style in-order pull — each node requests its first
//     missing packet from a uniformly random in-neighbor.
//   - push: the symmetric out-neighbor push.
//
// Pull and push are simulation state, not closed forms: slots are generated
// once, in order, into a core.SlotLog (the packed store internal/gossip
// shares) and every read materialises from it, so replays and out-of-order
// reads observe one schedule.
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
// source plus n receivers. It implements core.Scheme and
// core.PeriodicScheme; the pull and push modes decline compilation with
// Period() == 0 (their schedules are simulation state, not periodic).
type Scheme struct {
	g    *Digraph
	mode Mode
	n    int // receivers; digraph node v is core.NodeID v
	d    int

	// Latin mode: the precomputed edge plan.
	plan *latinPlan

	// Pull/push modes: lazy stateful generation in slot order into a slot
	// log for replay (both engines and repeated runs must observe identical
	// schedules); log.Len() is the first slot not yet generated. next[v] is
	// the holdings frontier: in-order transfer means node v holds exactly
	// the packets below next[v]. order, busy and txs are per-slot scratch,
	// reused so a slot allocates nothing once warm.
	rng   *stats.SplitMix64
	next  []core.Packet
	order []int
	busy  []bool
	txs   []core.Transmission
	log   core.SlotLog
}

var _ core.PeriodicScheme = (*Scheme)(nil)

// New builds a randreg scheme: a seeded simple strongly connected d-regular
// digraph over n receivers plus the source, and the requested schedule mode
// on top of it. Runs are deterministic in (n, degree, mode, seed).
func New(n, degree int, mode Mode, seed int64) (*Scheme, error) {
	if n < degree {
		return nil, fmt.Errorf("randreg: n=%d receivers cannot host a simple %d-regular digraph with the source (need n >= degree)", n, degree)
	}
	g, err := NewDigraph(n+1, degree, uint64(seed))
	if err != nil {
		return nil, err
	}
	s := &Scheme{g: g, mode: mode, n: n, d: degree}
	switch mode {
	case Latin:
		s.plan = newLatinPlan(g)
	case Pull, Push:
		// The protocol stream is split from the construction stream so the
		// graph for a given seed never depends on the mode.
		s.rng = stats.NewSplitMix64(stats.NewSplitMix64(uint64(seed)).Uint64() ^ 0xA5A5A5A5A5A5A5A5)
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

// Digraph exposes the underlying graph for analysis and property tests.
func (s *Scheme) Digraph() *Digraph { return s.g }

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
		for k := 0; k < s.d; k++ {
			list = core.AppendNeighbor(list, core.NodeID(s.g.In[v][k]))
			list = core.AppendNeighbor(list, core.NodeID(s.g.Out[v][k]))
		}
		slices.Sort(list)
		out[core.NodeID(v)] = list
	}
	return out
}

// Period implements core.PeriodicScheme: the latin mode repeats every d
// slots; the stateful pull/push modes decline compilation.
func (s *Scheme) Period() core.Slot {
	if s.mode == Latin {
		return core.Slot(s.d)
	}
	return 0
}

// SteadyState implements core.PeriodicScheme: once the largest edge delay
// has elapsed, every edge of the latin plan fires each period.
func (s *Scheme) SteadyState() core.Slot {
	if s.mode == Latin {
		return s.plan.steady
	}
	return 0
}

// MaxDelay returns the latin plan's largest edge delay (0 for the gossip
// modes) — the analytic worst-case start delay of the periodic schedule.
func (s *Scheme) MaxDelay() core.Slot {
	if s.mode == Latin {
		return s.plan.steady
	}
	return 0
}

// Transmissions implements core.Scheme.
func (s *Scheme) Transmissions(t core.Slot) []core.Transmission {
	if t < 0 {
		return nil
	}
	if s.mode == Latin {
		return s.latinSlot(t)
	}
	for s.log.Len() <= t {
		s.generate(s.log.Len())
	}
	return s.log.Transmissions(t)
}

// latinSlot emits phase k = t mod d: every live color-k edge (v→u) delivers
// packet t − delay(e), which by construction is ≡ its residue (mod d) and
// already held by the tail.
func (s *Scheme) latinSlot(t core.Slot) []core.Transmission {
	k := int(t) % s.d
	// Sized for the steady state, where every planned color-k edge fires.
	txs := make([]core.Transmission, 0, s.n)
	for u := 1; u <= s.n; u++ {
		delay := s.plan.delay[u][k]
		if delay >= latinInf {
			continue
		}
		p := t - core.Slot(delay)
		if p < 0 {
			continue
		}
		txs = append(txs, core.Transmission{
			From:   core.NodeID(s.g.In[u][k]),
			To:     core.NodeID(u),
			Packet: core.Packet(int(p)),
		})
	}
	return txs
}

// generate rolls the pull or push protocol forward by one slot. All
// decisions are made against the pre-slot state, one random draw per node
// in a seeded random priority order, so the schedule is a deterministic
// function of the seed alone.
func (s *Scheme) generate(t core.Slot) {
	txs := s.txs[:0]
	clear(s.busy)
	if s.mode == Pull {
		order := s.order[:s.n]
		s.rng.PermInto(order)
		for _, oi := range order {
			v := oi + 1
			p := s.next[v]
			u := s.g.In[v][s.rng.Intn(s.d)]
			if !s.holds(u, p, t) || s.busy[u] {
				continue
			}
			s.busy[u] = true // u serves one request per slot
			txs = append(txs, core.Transmission{From: core.NodeID(u), To: core.NodeID(v), Packet: p})
		}
	} else {
		order := s.order[:s.n+1]
		s.rng.PermInto(order)
		for _, v := range order {
			w := s.g.Out[v][s.rng.Intn(s.d)]
			if w == 0 {
				continue // the source needs nothing pushed to it
			}
			p := s.next[w]
			if !s.holds(v, p, t) || s.busy[w] {
				continue
			}
			s.busy[w] = true // w accepts one push per slot
			txs = append(txs, core.Transmission{From: core.NodeID(v), To: core.NodeID(w), Packet: p})
		}
	}
	for _, tx := range txs {
		s.next[tx.To]++
	}
	s.log.Append(txs)
	s.txs = txs
}

// holds reports whether node u can serve packet p at slot t: receivers
// hold the in-order prefix below their frontier; the live source holds
// packets up to the current slot.
func (s *Scheme) holds(u int, p core.Packet, t core.Slot) bool {
	if u == 0 {
		return core.Slot(int(p)) <= t
	}
	return s.next[u] > p
}
