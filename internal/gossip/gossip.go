package gossip

import (
	"fmt"
	"math/bits"
	"math/rand"

	"streamcast/internal/core"
)

// Strategy selects which missing packet a node asks for.
type Strategy int

const (
	// PullOldest requests the lowest-numbered missing packet — the
	// natural choice for in-order playback.
	PullOldest Strategy = iota
	// PullNewest requests the highest-numbered packet the neighbor has
	// that the puller lacks (fast at spreading fresh data, bad for the
	// playback frontier).
	PullNewest
	// PullRandom requests a uniformly random useful packet.
	PullRandom
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	switch s {
	case PullOldest:
		return "pull-oldest"
	case PullNewest:
		return "pull-newest"
	case PullRandom:
		return "pull-random"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Scheme is the unstructured pull mesh. It implements core.Scheme; the
// schedule is generated lazily in slot order.
type Scheme struct {
	n        int
	d        int // source capacity
	degree   int // neighbor-set size
	strategy Strategy
	seed     int64
	rng      *rand.Rand
	nbrs     [][]core.NodeID // per node (1..n), may include the source

	// have[i] is the set of packets node i holds, one bit per packet, grown
	// a word at a time on demand; have[0] is the live source's all-ones
	// prefix 0..t, extended by one bit as each slot is generated. low[i] is
	// node i's lowest missing packet: nothing below it is ever useful to
	// pull, so every scan of what a neighbor could offer starts there.
	have [][]uint64
	low  []int

	// Per-slot scratch, reused so a slot allocates nothing once warm: the
	// request order, how many requests each node has served, and the
	// slot's transmissions, which Transmissions returns.
	order  []int32
	served []int32
	txs    []core.Transmission

	// gen is the number of slots generated so far; txs holds the last.
	gen core.Slot
}

// New builds a gossip mesh over n receivers with the given neighbor-set
// size and source capacity d. The seed makes the run reproducible.
func New(n, d, degree int, strategy Strategy, seed int64) (*Scheme, error) {
	if n < 1 {
		return nil, fmt.Errorf("gossip: n must be >= 1, got %d", n)
	}
	if d < 1 {
		return nil, fmt.Errorf("gossip: source capacity must be >= 1, got %d", d)
	}
	if degree < 1 {
		return nil, fmt.Errorf("gossip: neighbor degree must be >= 1, got %d", degree)
	}
	s := &Scheme{
		n: n, d: d, degree: degree, strategy: strategy, seed: seed,
		rng:    rand.New(rand.NewSource(seed)),
		nbrs:   make([][]core.NodeID, n+1),
		have:   make([][]uint64, n+1),
		low:    make([]int, n+1),
		order:  make([]int32, n),
		served: make([]int32, n+1),
	}
	s.drawMesh()
	return s, nil
}

// drawMesh draws the random mesh from the seeded stream: every node gets
// `degree` distinct neighbors — or the n-1 peers that exist, when degree
// asks for more; d random nodes additionally adopt the source, so new data
// has entry points. The protocol's draws continue the same stream.
func (s *Scheme) drawMesh() {
	n := s.n
	for i := 1; i <= n; i++ {
		s.nbrs[i] = s.nbrs[i][:0]
		seen := map[core.NodeID]bool{core.NodeID(i): true}
		for len(s.nbrs[i]) < s.degree && len(seen) < n {
			nb := core.NodeID(1 + s.rng.Intn(n))
			if !seen[nb] {
				seen[nb] = true
				s.nbrs[i] = append(s.nbrs[i], nb)
			}
		}
	}
	for g := 0; g < s.d && g < n; g++ {
		who := core.NodeID(1 + s.rng.Intn(n))
		s.nbrs[who] = append(s.nbrs[who], core.SourceID)
	}
}

// Name implements core.Scheme.
func (s *Scheme) Name() string {
	return fmt.Sprintf("gossip(%s,deg=%d)", s.strategy, s.degree)
}

// NumReceivers implements core.Scheme.
func (s *Scheme) NumReceivers() int { return s.n }

// SourceCapacity implements core.Scheme.
func (s *Scheme) SourceCapacity() int { return s.d }

// Neighbors implements core.Scheme.
func (s *Scheme) Neighbors() map[core.NodeID][]core.NodeID {
	out := make(map[core.NodeID][]core.NodeID, s.n)
	sym := make(map[core.NodeID]map[core.NodeID]bool, s.n)
	add := func(a, b core.NodeID) {
		if sym[a] == nil {
			sym[a] = map[core.NodeID]bool{}
		}
		sym[a][b] = true
	}
	for i := 1; i <= s.n; i++ {
		for _, nb := range s.nbrs[i] {
			add(core.NodeID(i), nb)
			if nb != core.SourceID {
				add(nb, core.NodeID(i))
			}
		}
	}
	for id, set := range sym {
		list := make([]core.NodeID, 0, len(set))
		for nb := range set {
			list = append(list, nb)
		}
		out[id] = list
	}
	return out
}

// give records a packet arrival (usable from the next slot) and advances
// the node's lowest-missing frontier past it when it filled the gap.
func (s *Scheme) give(id core.NodeID, p core.Packet) {
	h := s.have[id]
	for int(p)>>6 >= len(h) {
		h = append(h, 0)
	}
	h[int(p)>>6] |= 1 << (uint(p) & 63)
	s.have[id] = h
	if int(p) != s.low[id] {
		return
	}
	lo := int(p) + 1
	for lo>>6 < len(h) {
		if gaps := ^h[lo>>6] >> (uint(lo) & 63); gaps != 0 {
			lo += bits.TrailingZeros64(gaps)
			break
		}
		lo = (lo>>6 + 1) << 6
	}
	s.low[id] = lo
}

// Transmissions implements core.Scheme. Slots are generated forward to t; a
// read of a slot before the last one generated rewinds first. The slice is
// the reused slot buffer, valid until the next call, and nil for a slot
// with no transmissions.
func (s *Scheme) Transmissions(t core.Slot) []core.Transmission {
	if t < 0 {
		return nil
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

// rewind returns the mesh to its state before slot 0. math/rand's state
// cannot be copied, so the stream is re-seeded and the mesh drawn again,
// which leaves the stream where New left it; the have-sets are emptied in
// place. The schedule is a deterministic function of that state, so
// regenerating replays it exactly.
func (s *Scheme) rewind() {
	s.rng.Seed(s.seed)
	s.drawMesh()
	for i := range s.have {
		s.have[i] = s.have[i][:0]
	}
	clear(s.low)
	s.gen = 0
}

// generate rolls the pull protocol forward by one slot.
func (s *Scheme) generate(t core.Slot) {
	s.give(core.SourceID, core.Packet(int(t))) // live: packet t exists from slot t
	// Each node picks a target; requests are granted in random order. The
	// order is math/rand's Perm, draw for draw, shuffled into the reused
	// buffer.
	order := s.order
	for i := range order {
		j := s.rng.Intn(i + 1)
		order[i] = order[j]
		order[j] = int32(i)
	}
	clear(s.served)
	txs := s.txs[:0]
	for _, oi := range order {
		puller := core.NodeID(oi + 1)
		target := s.nbrs[puller][s.rng.Intn(len(s.nbrs[puller]))]
		capacity := 1
		if target == core.SourceID {
			capacity = s.d
		}
		if int(s.served[target]) >= capacity {
			continue // target busy this slot
		}
		p, ok := s.choose(puller, target)
		if !ok {
			continue // neighbor has nothing useful
		}
		s.served[target]++
		txs = append(txs, core.Transmission{From: target, To: puller, Packet: p})
	}
	for _, tx := range txs {
		s.give(tx.To, tx.Packet)
	}
	s.txs = txs
}

// choose picks the packet the puller requests from the target under the
// strategy, or ok=false if the target has nothing useful. The useful set is
// target &^ puller, scanned a word at a time from the puller's frontier.
func (s *Scheme) choose(puller, target core.NodeID) (core.Packet, bool) {
	tg, pl := s.have[target], s.have[puller]
	first := s.low[puller] >> 6
	switch s.strategy {
	case PullNewest:
		for w := len(tg) - 1; w >= first; w-- {
			if u := useful(tg, pl, w); u != 0 {
				return core.Packet(w<<6 + 63 - bits.LeadingZeros64(u)), true
			}
		}
	case PullRandom:
		count := 0
		for w := first; w < len(tg); w++ {
			count += bits.OnesCount64(useful(tg, pl, w))
		}
		if count == 0 {
			return 0, false
		}
		// The k-th useful packet in ascending order.
		k := s.rng.Intn(count)
		for w := first; ; w++ {
			u := useful(tg, pl, w)
			if c := bits.OnesCount64(u); k >= c {
				k -= c
				continue
			}
			for ; k > 0; k-- {
				u &= u - 1
			}
			return core.Packet(w<<6 + bits.TrailingZeros64(u)), true
		}
	default:
		for w := first; w < len(tg); w++ {
			if u := useful(tg, pl, w); u != 0 {
				return core.Packet(w<<6 + bits.TrailingZeros64(u)), true
			}
		}
	}
	return 0, false
}

// useful returns word w of the packets tg holds and pl lacks; w must be
// below len(tg).
func useful(tg, pl []uint64, w int) uint64 {
	if w < len(pl) {
		return tg[w] &^ pl[w]
	}
	return tg[w]
}
