package gossip

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"streamcast/internal/core"
	"streamcast/internal/slotsim"
)

// runGossip executes the mesh with a generous horizon, tolerating holes
// (best-effort has no delivery guarantee).
func runGossip(t *testing.T, s *Scheme, packets core.Packet, slots core.Slot) *slotsim.Result {
	t.Helper()
	res, err := slotsim.Run(s, slotsim.Options{
		Slots:           slots,
		Packets:         packets,
		Mode:            core.Live,
		AllowIncomplete: true,
	})
	if err != nil {
		t.Fatalf("%s: %v", s.Name(), err)
	}
	return res
}

// TestGossipRespectsModel: the generated schedule obeys one-send/one-receive
// and availability over 200 slots — the engine would reject it otherwise.
// The engine validates the slots it executes and a bare run ends once its
// window is complete, so the window is sized to the span under test: packet
// 189 is not generated before slot 189.
func TestGossipRespectsModel(t *testing.T) {
	for _, strat := range []Strategy{PullOldest, PullNewest, PullRandom} {
		s, err := New(40, 3, 5, strat, 1)
		if err != nil {
			t.Fatal(err)
		}
		runGossip(t, s, 190, 200)
	}
}

// TestGossipEventuallyDelivers: with the oldest-first strategy and a long
// horizon, every node catches the early packets.
func TestGossipEventuallyDelivers(t *testing.T) {
	s, err := New(30, 3, 6, PullOldest, 7)
	if err != nil {
		t.Fatal(err)
	}
	res := runGossip(t, s, 8, 400)
	for id := 1; id <= 30; id++ {
		if res.Missing[id] != 0 {
			t.Errorf("node %d missing %d packets after 400 slots", id, res.Missing[id])
		}
	}
}

// TestGossipIsBestEffort: the measured worst-case delay of the unstructured
// mesh exceeds the multi-tree's provable h·d bound at the same N and source
// capacity — the paper's core motivation for structured schemes.
func TestGossipIsBestEffort(t *testing.T) {
	n, d := 60, 3
	s, err := New(n, d, 5, PullOldest, 3)
	if err != nil {
		t.Fatal(err)
	}
	res := runGossip(t, s, 10, 500)
	// Multi-tree bound at N=60, d=3: h=3 -> 9 slots.
	structuredBound := core.Slot(9)
	if res.WorstStartDelay() <= structuredBound {
		t.Errorf("gossip worst delay %d unexpectedly within the structured bound %d",
			res.WorstStartDelay(), structuredBound)
	}
}

// TestGossipReplayDeterminism: replaying a slot returns the identical
// transmissions (core.Scheme contract). A returned slot is valid only until
// the next call, so the first pass keeps clones.
func TestGossipReplayDeterminism(t *testing.T) {
	s, err := New(20, 2, 4, PullRandom, 11)
	if err != nil {
		t.Fatal(err)
	}
	first := make([][]core.Transmission, 50)
	for u := core.Slot(0); u < 50; u++ {
		first[u] = slices.Clone(s.Transmissions(u))
	}
	for u := core.Slot(0); u < 50; u++ {
		again := s.Transmissions(u)
		if len(again) != len(first[u]) {
			t.Fatalf("slot %d: %d vs %d transmissions", u, len(again), len(first[u]))
		}
		for i := range again {
			if again[i] != first[u][i] {
				t.Fatalf("slot %d tx %d: %v vs %v", u, i, again[i], first[u][i])
			}
		}
	}
	// Two schemes with the same seed produce identical schedules.
	s2, err := New(20, 2, 4, PullRandom, 11)
	if err != nil {
		t.Fatal(err)
	}
	for u := core.Slot(0); u < 50; u++ {
		if a, b := slices.Clone(s.Transmissions(u)), s2.Transmissions(u); !reflect.DeepEqual(a, b) {
			t.Fatalf("seeded replay diverged at slot %d: %v vs %v", u, a, b)
		}
	}
}

// TestGossipNeighborDegree: neighbor sets have the configured size (plus
// possible source adoption and reverse edges).
func TestGossipNeighborDegree(t *testing.T) {
	s, err := New(50, 2, 4, PullOldest, 5)
	if err != nil {
		t.Fatal(err)
	}
	for id, nb := range s.Neighbors() {
		if len(nb) < 1 {
			t.Errorf("node %d has no neighbors", id)
		}
	}
}

// TestDoubleAdoptionListedOnce: with seed 8, two of the d = 3 source
// adoptions draw node 7, so it pulls from the source twice as often as a
// single adoption would; its mesh still lists the source once.
func TestDoubleAdoptionListedOnce(t *testing.T) {
	s, err := New(8, 3, 5, PullOldest, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got := slices.Index(s.nbrs[7], core.SourceID); got < 0 || slices.Index(s.nbrs[7][got+1:], core.SourceID) < 0 {
		t.Fatalf("node 7 drew %v: want the source twice", s.nbrs[7])
	}
	listed := 0
	s.EachNeighbors(func(id core.NodeID, list []core.NodeID) {
		if id == 7 {
			for _, nb := range list {
				if nb == core.SourceID {
					listed++
				}
			}
		}
	})
	if listed != 1 {
		t.Errorf("node 7 lists the source %d times, want once", listed)
	}
}

func TestGossipValidation(t *testing.T) {
	if _, err := New(0, 1, 1, PullOldest, 1); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := New(5, 0, 1, PullOldest, 1); err == nil {
		t.Error("d=0 accepted")
	}
	if _, err := New(5, 1, 0, PullOldest, 1); err == nil {
		t.Error("degree=0 accepted")
	}
}

// TestNewTerminatesWhenDegreeExceedsPeers: a degree the mesh cannot supply
// (only n-1 peers exist) used to spin New's neighbor loop forever. Each
// node now adopts the peers there are — for n = 1 only its source adoption
// — and the mesh runs to completion through the engine.
func TestNewTerminatesWhenDegreeExceedsPeers(t *testing.T) {
	type outcome struct {
		s   *Scheme
		err error
	}
	for _, c := range []struct{ n, degree int }{{1, 1}, {2, 4}, {3, 5}, {6, 5}} {
		done := make(chan outcome, 1)
		go func() {
			s, err := New(c.n, 2, c.degree, PullOldest, 1)
			if err == nil {
				_, err = slotsim.Run(s, slotsim.Options{
					Slots: 120, Packets: 8, Mode: core.Live, AllowIncomplete: true,
				})
			}
			done <- outcome{s, err}
		}()
		select {
		case o := <-done:
			if o.err != nil {
				t.Fatalf("n=%d degree=%d: %v", c.n, c.degree, o.err)
			}
			for i := 1; i <= c.n; i++ {
				peers := 0
				for _, nb := range o.s.nbrs[i] {
					if nb != core.SourceID {
						peers++
					}
				}
				if want := min(c.degree, c.n-1); peers != want {
					t.Errorf("n=%d degree=%d: node %d has %d peers, want %d", c.n, c.degree, i, peers, want)
				}
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("n=%d degree=%d: New or the run did not finish in 10s", c.n, c.degree)
		}
	}
}

// TestGenerateAllocsPerSlot pins the cost model: generating and reading one
// further slot at N = 1000 allocates nothing — where the map-and-sort
// generator made some 400. The window (slots 1200..1399) sits between two
// doublings of the have-sets' append growth under all three strategies; each
// doubling of the horizon adds one allocation per node on top of this.
func TestGenerateAllocsPerSlot(t *testing.T) {
	for _, strat := range []Strategy{PullOldest, PullNewest, PullRandom} {
		s, err := New(1000, 3, 5, strat, 42)
		if err != nil {
			t.Fatal(err)
		}
		next := core.Slot(1200)
		s.Transmissions(next - 1)
		avg := testing.AllocsPerRun(200, func() {
			s.Transmissions(next)
			next++
		})
		if avg > 0 {
			t.Errorf("%s: %.0f allocations per generated slot, want 0", strat, avg)
		}
	}
}

// TestReplayMatchesInOrderRead: the mesh keeps no history, so a read of an
// earlier slot rewinds and regenerates. For every strategy, slots read in a
// seeded shuffled order, with repeats and backward jumps, each cloned as it
// is read, equal a fresh scheme's in-order read: same values, same order,
// nil for an empty slot. The horizon carries the smallest mesh's frontiers
// past packet 64, so a rewind that left them stale would scan from the
// wrong have-set word.
func TestReplayMatchesInOrderRead(t *testing.T) {
	const horizon = 260
	empty := 0
	for _, strat := range []Strategy{PullOldest, PullNewest, PullRandom} {
		for _, c := range []struct {
			n, d, degree int
			seed         int64
		}{{5, 1, 2, 1}, {17, 2, 3, 2}, {64, 3, 5, 3}} {
			fresh, err := New(c.n, c.d, c.degree, strat, c.seed)
			if err != nil {
				t.Fatal(err)
			}
			want := make([][]core.Transmission, horizon)
			for u := range want {
				want[u] = slices.Clone(fresh.Transmissions(core.Slot(u)))
				if want[u] == nil {
					empty++
				}
			}
			s, err := New(c.n, c.d, c.degree, strat, c.seed)
			if err != nil {
				t.Fatal(err)
			}
			for i, u := range shuffledReads(horizon, c.seed) {
				if got := slices.Clone(s.Transmissions(core.Slot(u))); !reflect.DeepEqual(got, want[u]) {
					t.Fatalf("%s n=%d seed=%d read %d (slot %d):\n got %v\nwant %v",
						strat, c.n, c.seed, i, u, got, want[u])
				}
			}
		}
	}
	if empty == 0 {
		t.Error("no case produced an empty slot")
	}
}

// shuffledReads is a seeded read order over slots 0..horizon-1: two
// shuffled passes, every slot read twice in a row once in a while, so the
// order has repeats, backward jumps and forward runs.
func shuffledReads(horizon int, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	var reads []int
	for pass := 0; pass < 2; pass++ {
		for _, u := range rng.Perm(horizon) {
			reads = append(reads, u)
			if rng.Intn(5) == 0 {
				reads = append(reads, u)
			}
		}
	}
	return reads
}
