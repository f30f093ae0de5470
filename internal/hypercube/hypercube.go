package hypercube

import (
	"fmt"
	"math/bits"

	"streamcast/internal/core"
)

// cubeSpec describes one hypercube in a chain.
type cubeSpec struct {
	// k is the cube dimension; the cube holds 2^k − 1 receivers.
	k int
	// base is the global slot at which packet 0 is injected into the cube.
	base core.Slot
	// firstID is the global NodeID of local vertex 1; local vertex v
	// (1..2^k−1) has global id firstID + v − 1.
	firstID core.NodeID
	// order optionally overrides the repeating dimension sequence (length
	// k). nil selects the paper's cycle. The correctness of the doubling
	// schedule only requires that any window of k consecutive slots uses k
	// distinct dimensions, i.e. that order is a permutation — the
	// dimension-order ablation demonstrates that a non-covering sequence
	// starves part of the cube.
	order []int
}

// size returns the number of receivers in the cube.
func (c cubeSpec) size() int { return 1<<c.k - 1 }

// id maps a local vertex (1..2^k−1) to its global NodeID.
func (c cubeSpec) id(v int) core.NodeID { return c.firstID + core.NodeID(v) - 1 }

// dim returns the pairing dimension used at local slot τ: by default
// (τ−1) mod k, matching the paper's example where slot 3n pairs the highest
// bit and slot 3n+1 pairs the lowest.
func (c cubeSpec) dim(tau core.Slot) int {
	k := core.Slot(c.k)
	i := int(((tau-1)%k + k) % k)
	if c.order != nil {
		return c.order[i]
	}
	return i
}

// Scheme is the hypercube-based streaming scheme for arbitrary N with a
// source of capacity d ≥ 1 (d groups, each a chain of hypercubes). It
// implements core.Scheme.
type Scheme struct {
	n      int
	d      int
	groups [][]cubeSpec
}

var _ core.Scheme = (*Scheme)(nil)

// New builds the hypercube-based scheme for n receivers and source
// capacity d. The n receivers are divided into d near-equal groups (sizes
// differing by at most one); each group is covered by a chain of hypercubes
// of strictly decreasing remaining size.
func New(n, d int) (*Scheme, error) {
	if n < 1 {
		return nil, fmt.Errorf("hypercube: n must be >= 1, got %d", n)
	}
	if d < 1 {
		return nil, fmt.Errorf("hypercube: source capacity must be >= 1, got %d", d)
	}
	if d > n {
		d = n
	}
	s := &Scheme{n: n, d: d}
	next := core.NodeID(1)
	for g := 0; g < d; g++ {
		size := n / d
		if g < n%d {
			size++
		}
		chain, last := buildChain(size, next)
		s.groups = append(s.groups, chain)
		next = last
	}
	return s, nil
}

// buildChain splits `size` receivers into a chain of hypercubes: the first
// cube takes 2^⌊log2(size+1)⌋ − 1 nodes (at least half), and the freed
// sender of each cube feeds the next, which therefore starts k slots later.
func buildChain(size int, first core.NodeID) ([]cubeSpec, core.NodeID) {
	var chain []cubeSpec
	var base core.Slot
	for size > 0 {
		k := 0
		for 1<<(k+1)-1 <= size {
			k++
		}
		c := cubeSpec{k: k, base: base, firstID: first}
		chain = append(chain, c)
		first += core.NodeID(c.size())
		size -= c.size()
		base += core.Slot(k)
	}
	return chain, first
}

// NewWithDimOrder builds a single-cube scheme for n = 2^k − 1 receivers
// whose pairing repeats the given dimension sequence (length k) instead of
// the paper's cycle. Intended for the dimension-order ablation: any
// permutation preserves the doubling invariant; a sequence that omits a
// dimension starves half the cube.
func NewWithDimOrder(n int, order []int) (*Scheme, error) {
	k := 0
	for 1<<(k+1)-1 <= n {
		k++
	}
	if 1<<k-1 != n {
		return nil, fmt.Errorf("hypercube: NewWithDimOrder needs n = 2^k-1, got %d", n)
	}
	if len(order) != k {
		return nil, fmt.Errorf("hypercube: order must have length %d, got %d", k, len(order))
	}
	for _, d := range order {
		if d < 0 || d >= k {
			return nil, fmt.Errorf("hypercube: dimension %d out of range [0,%d)", d, k)
		}
	}
	return &Scheme{
		n: n, d: 1,
		groups: [][]cubeSpec{{{k: k, base: 0, firstID: 1, order: order}}},
	}, nil
}

// Name implements core.Scheme.
func (s *Scheme) Name() string {
	return fmt.Sprintf("hypercube(d=%d)", s.d)
}

// NumReceivers implements core.Scheme.
func (s *Scheme) NumReceivers() int { return s.n }

// SourceCapacity implements core.Scheme.
func (s *Scheme) SourceCapacity() int { return s.d }

// Period implements core.PeriodicScheme: each cube's pairing dimension
// cycles with period k, so the whole chained schedule (including the
// freed-sender chaining edges between consecutive cubes) repeats after the
// least common multiple of all cube dimensions, with packet numbers advanced
// by exactly that many slots.
func (s *Scheme) Period() core.Slot {
	p := 1
	for _, chain := range s.groups {
		for _, c := range chain {
			p = lcm(p, c.k)
		}
	}
	return core.Slot(p)
}

// SteadyState implements core.PeriodicScheme: a cube's spread window
// [τ−k, τ−1] is clamped at its start (packets before injection do not
// exist), so the pattern is periodic once every cube has been running for k
// slots past its base.
func (s *Scheme) SteadyState() core.Slot {
	var w core.Slot
	for _, chain := range s.groups {
		for _, c := range chain {
			if v := c.base + core.Slot(c.k); v > w {
				w = v
			}
		}
	}
	return w
}

var _ core.PeriodicScheme = (*Scheme)(nil)

// CubeDims returns, per group, the dimensions of the chained cubes — e.g.
// N=11, d=1 yields [[3 1 1]].
func (s *Scheme) CubeDims() [][]int {
	out := make([][]int, len(s.groups))
	for g, chain := range s.groups {
		for _, c := range chain {
			out[g] = append(out[g], c.k)
		}
	}
	return out
}

// Transmissions implements core.Scheme. In steady state every cube emits one
// injection and 2^k − 2 spreads, n transmissions in all, so the slice is
// sized once; the slack covers a dimension order that pairs no holder with
// the source.
func (s *Scheme) Transmissions(t core.Slot) []core.Transmission {
	if t < 0 {
		return nil
	}
	out := make([]core.Transmission, 0, s.n+len(s.groups))
	for _, chain := range s.groups {
		for i, c := range chain {
			tau := t - c.base
			if tau < 0 {
				break // later cubes start even later
			}
			// Injection of packet tau into this cube: from the real
			// source for the first cube, otherwise from the previous
			// cube's freed sender (vertex 2^dim of the previous cube,
			// which is paired with its own virtual source this slot).
			injector := core.SourceID
			if i > 0 {
				prev := chain[i-1]
				injector = prev.id(1 << prev.dim(t-prev.base))
			}
			out = append(out, core.Transmission{
				From:   injector,
				To:     c.id(1 << c.dim(tau)),
				Packet: core.Packet(int(tau)),
			})
			out = appendSpreads(out, c, tau)
		}
	}
	return out
}

// appendSpreads emits the intra-cube doubling transmissions of cube c at
// local slot τ: every in-flight packet j ∈ [τ−k, τ−1] is forwarded along
// dimension dim(τ) by its current holder set
// H(j) = 2^dim(j) ⊕ span{dim(j+1), …, dim(τ−1)}, except the holder paired
// with the (virtual) source, which is freed to feed the next cube.
//
// H(j) is walked in binary-counting order of the subset mask over those
// dimensions. Counting from mask−1 to mask clears the trailing ones and sets
// the next bit, so the holder moves by the XOR of the first
// TrailingZeros(mask)+1 dimensions — one lookup in a prefix-XOR table.
func appendSpreads(out []core.Transmission, c cubeSpec, tau core.Slot) []core.Transmission {
	cur := 1 << c.dim(tau)
	lo := max(tau-core.Slot(c.k), 0)
	base := c.firstID - 1
	var px [64]int // px[i] = 2^dim(j+1) ⊕ … ⊕ 2^dim(j+1+i)
	for j := lo; j < tau; j++ {
		m := int(tau - 1 - j) // dimensions the packet has already spread along
		acc := 0
		for i := 0; i < m; i++ {
			acc ^= 1 << c.dim(j+1+core.Slot(i))
			px[i] = acc
		}
		pkt := core.Packet(int(j))
		v := 1 << c.dim(j)
		for mask := uint(0); ; {
			if v != cur { // cur is the freed sender: paired with the source this slot
				out = append(out, core.Transmission{
					From:   base + core.NodeID(v),
					To:     base + core.NodeID(v^cur),
					Packet: pkt,
				})
			}
			if mask++; mask == 1<<m {
				break
			}
			v ^= px[bits.TrailingZeros(mask)]
		}
	}
	return out
}

// Neighbors implements core.Scheme: each node's intra-cube partners (one per
// dimension, where the partner of 2^dim(τ) in the pairing slot is the cube's
// source/injector side) plus the chaining edges between consecutive cubes.
// A vertex's list is its bit-flip partners in dimension order — a row of one
// array per cube — followed, for the vertices 2^b, by the injector and chain
// edges in schedule order.
func (s *Scheme) Neighbors() map[core.NodeID][]core.NodeID {
	out := make(map[core.NodeID][]core.NodeID, s.n)
	for _, chain := range s.groups {
		for i, c := range chain {
			// Intra-cube pairing partners. Only a vertex 2^b has fewer
			// than k (its partner along b is the injector side, below), so
			// only its row can outgrow k entries, and append then moves
			// that one list out of the array.
			rows := make([]core.NodeID, c.size()*c.k)
			for v := 1; v < 1<<c.k; v++ {
				list := rows[(v-1)*c.k : (v-1)*c.k : v*c.k]
				for b := 0; b < c.k; b++ {
					if w := v ^ 1<<b; w != 0 {
						list = append(list, c.id(w))
					}
				}
				out[c.id(v)] = list
			}
			// Injector edges: who delivers new packets to this cube's
			// vertices 2^b.
			if i == 0 {
				for b := 0; b < c.k; b++ {
					id := c.id(1 << b)
					out[id] = core.AppendNeighbor(out[id], core.SourceID)
				}
				continue
			}
			prev := chain[i-1]
			// The freed sender of prev at global slot t is
			// prev-vertex 2^prev.dim(t−prev.base); the injectee is
			// c-vertex 2^c.dim(t−c.base). Enumerate one full period.
			period := core.Slot(lcm(prev.k, c.k))
			for off := core.Slot(0); off < period; off++ {
				t := c.base + core.Slot(c.k) + off // any slot ≥ both bases
				from, to := prev.id(1<<prev.dim(t-prev.base)), c.id(1<<c.dim(t-c.base))
				out[from] = core.AppendNeighbor(out[from], to)
				out[to] = core.AppendNeighbor(out[to], from)
			}
		}
	}
	return out
}

func lcm(a, b int) int {
	return a / gcd(a, b) * b
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
