package slotsim

// Struct-of-arrays node state (see PERFORMANCE.md). The engine keeps no
// per-node structs: every per-node quantity lives in its own flat array
// indexed by NodeID, so one slot's work walks a handful of dense arrays
// instead of chasing pointers.
//
//	arr        [maxPkt · (N+1)]int32  arrival matrix, arr[p·(N+1)+id] = slot+1 (0 = not yet)
//	sentSt     [N+1]uint64            send counter: epoch stamp (high 32) | count (low 32)
//	recvSt     [N+1]uint64            receive counter, same packing
//	cursor     [N+1]uint64            playback cursor: worstLag (high 32) | got (low 32)
//	dirtyRows  [(maxPkt+63)/64]uint64 bitmap of arrival-matrix packet rows written this run
//
// The counters and cursors pack two logically separate fields into one
// word on purpose: the hot path reads and writes them together, so packing
// halves the cache lines touched per transmission. The arrival matrix is
// packet-major because one slot moves few distinct packets across many
// nodes: availability checks and deliveries then walk a handful of rows
// near-sequentially instead of probing N random node rows.
//
// Two idioms keep the per-slot path free of O(N) work and of allocations:
//
//   - Epoch stamping: the capacity counters are never bulk-cleared. Each
//     validation/delivery phase draws a fresh tick; a counter whose stamp
//     is not the current tick reads as zero. Resetting N counters is one
//     integer increment.
//   - Dirty rows: the arrival matrix is never bulk-cleared between runs.
//     Each delivery marks its packet's bit in dirtyRows, and the next run
//     clears exactly the marked rows — one contiguous memclr per packet
//     that moved, instead of an O(maxPkt·N) wipe.

import "streamcast/internal/core"

// unset32 marks a not-yet-arrived packet in the packed arrival matrix.
// Arrival slots are stored biased by +1 so the zero value means "unset" and
// a freshly allocated matrix needs no initialization pass.
const unset32 int32 = 0

// noLag is the worstLag sentinel for "no window packet arrived yet".
// Lags can be negative (a pre-recorded packet may arrive slots early), so
// the cursor needs an out-of-band minimum rather than zero.
const noLag int32 = -1 << 30

// txRing is the in-flight transmission buffer for runs with link latency:
// bucket t%len holds the transmissions arriving at the end of slot t. It
// replaces the map[Slot][]Transmission of the pre-SoA engine — bucket
// storage is recycled across slots and runs, so the steady-state routing
// path allocates nothing. The ring grows (rarely, amortized) when two
// pending arrival slots collide in one bucket, which bounds its size by
// roughly twice the largest in-flight latency.
type txRing struct {
	buckets [][]core.Transmission
	// slot[i] tags the absolute arrival slot of buckets[i]; -1 = empty.
	// All pending entries of one bucket share one arrival slot, so growth
	// can relocate whole buckets without disturbing intra-slot order.
	slot []core.Slot
}

// reset empties every bucket, keeping grown storage for the next run.
func (r *txRing) reset() {
	for i := range r.buckets {
		r.buckets[i] = r.buckets[i][:0]
		r.slot[i] = -1
	}
}

// grow resizes the ring so that every pending arrival slot — plus the new
// slot `at` — maps to its own bucket, and relocates pending buckets. The
// pending slots always lie in one contiguous span (bounded by the largest
// in-flight latency), so a ring larger than that span is collision-free.
// Not on the hot path in steady state: the ring only ever grows, so a run's
// first few slots pay for all later ones.
func (r *txRing) grow(at core.Slot) {
	lo, hi := at, at
	for i, s := range r.slot {
		if s < 0 || len(r.buckets[i]) == 0 {
			continue
		}
		if s < lo {
			lo = s
		}
		if s > hi {
			hi = s
		}
	}
	size := 8
	for core.Slot(size) <= hi-lo {
		size *= 2
	}
	buckets := make([][]core.Transmission, size)
	slots := make([]core.Slot, size)
	for i := range slots {
		slots[i] = -1
	}
	for i, b := range r.buckets {
		if r.slot[i] < 0 || len(b) == 0 {
			continue
		}
		j := int(r.slot[i]) % size
		buckets[j] = b
		slots[j] = r.slot[i]
	}
	r.buckets = buckets
	r.slot = slots
}

// enqueue schedules tx to arrive at the end of absolute slot `at`.
func (r *txRing) enqueue(at core.Slot, tx core.Transmission) {
	if n := len(r.buckets); n > 0 {
		i := int(at) % n
		switch r.slot[i] {
		case at:
			r.buckets[i] = append(r.buckets[i], tx)
			return
		case -1:
			r.slot[i] = at
			r.buckets[i] = append(r.buckets[i], tx)
			return
		}
		// Bucket occupied by a different pending slot: the ring is too
		// small for the current latency spread.
	}
	r.grow(at)
	i := int(at) % len(r.buckets)
	r.slot[i] = at
	r.buckets[i] = append(r.buckets[i], tx)
}

// drain appends the transmissions arriving at the end of slot t to dst, in
// enqueue order, and recycles their bucket.
func (r *txRing) drain(t core.Slot, dst []core.Transmission) []core.Transmission {
	n := len(r.buckets)
	if n == 0 {
		return dst
	}
	i := int(t) % n
	if r.slot[i] != t {
		return dst
	}
	dst = append(dst, r.buckets[i]...)
	r.buckets[i] = r.buckets[i][:0]
	r.slot[i] = -1
	return dst
}

// purgeTo discards every pending in-flight transmission addressed to id.
// Used by the churn path when a node id is reassigned to a joining member:
// packets that were in flight to the previous occupant must not arrive at
// the new one. Bucket order is preserved for the surviving entries.
func (r *txRing) purgeTo(id core.NodeID) {
	for i, b := range r.buckets {
		if r.slot[i] < 0 || len(b) == 0 {
			continue
		}
		kept := b[:0]
		for _, tx := range b {
			if tx.To != id {
				kept = append(kept, tx)
			}
		}
		r.buckets[i] = kept
		if len(kept) == 0 {
			r.slot[i] = -1
		}
	}
}

// grownInt32s returns s resized to n, reusing its backing array when large
// enough. Contents are unspecified; callers reset what they read.
func grownInt32s(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// grownU64s returns s resized to n words, reusing its backing array when
// large enough. Contents are unspecified; callers reset what they read —
// with one deliberate exception: the epoch-stamp counters (sentSt/recvSt)
// are safe uninitialized, because a stale stamp is an already-spent tick
// (ticks are monotonic across runs) and therefore never matches a live one.
func grownU64s(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	return s[:n]
}
