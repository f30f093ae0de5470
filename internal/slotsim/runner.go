package slotsim

import (
	"reflect"
	"sync"

	"streamcast/internal/core"
)

// scratch is the reusable allocation arena of one Runner: every buffer the
// engine needs per run, grown on demand and recycled across runs. The
// per-slot hot path (step/route/deliver/finish) allocates nothing in steady
// state; the hotalloc streamvet analyzer machine-checks the map half of
// that invariant and TestSteadyStateAllocFree pins the rest.
//
// All per-node state is struct-of-arrays (soa.go): flat arrays indexed by
// NodeID, with the arrival ledger packed into bit and int32 arrays.
type scratch struct {
	// The arrival ledger (ledger.go). words, stride and cellRows describe the
	// layout of the run that last wrote it, so that the next run can undo
	// exactly those writes (with maxArr, which bounds its slot rows).
	have      []uint64            // packet-major presence bits
	dirtyRows []uint64            // packet rows of have and cells written this run
	words     int                 // uint64 words per presence or slot row
	cells     []int32             // a cell run's packet-major window cells (slot+1; 0 = unset)
	stride    int                 // row stride of cells
	cellRows  int                 // window rows of cells (0 = a cell-free run)
	slots     []uint64            // a cell-free run's slot-major window arrival bits
	sentSt    []uint64            // packed send counters: epoch stamp<<32 | count
	recvSt    []uint64            // packed receive counters, same layout
	tick      uint32              // current epoch; monotonic across runs
	cursor    []uint64            // packed playback cursors: worstLag<<32 | got
	maxArr    int32               // last window arrival slot (-1 = none yet)
	sendTab   []int32             // precomputed send capacities (default funcs only)
	recvTab   []int32             // precomputed receive capacities
	tabN      int                 // nodes the capacity tables cover (0 = stale)
	tabSrcCap int32               // source capacity the tables were filled for
	counts    []int               // per-slot arrival counts for maxBuffer (kept zeroed)
	tile      []int32             // finish's gather buffer: finishTile ids × Packets, node-major
	filter    []core.Transmission // SkipUnavailable keep-list
	arrive    []core.Transmission // same-slot arrival list
	ring      txRing              // in-flight transmissions keyed by arrival slot
	eng       engine              // engine state, reset per run
}

// compiledEntry caches the outcome of compiling one scheme: dst is the
// compiled snapshot, or nil when compilation was attempted and failed (so
// the Runner does not retry a scheme that cannot compile on every run).
type compiledEntry struct {
	src core.Scheme
	dst core.Scheme
}

// Runner owns the engine's scratch memory and a small cache of compiled
// schedules, so repeated runs — experiment sweeps, benchmarks, fault
// corpora — reuse both instead of re-allocating and re-compiling. A Runner
// is NOT safe for concurrent use (its compiled snapshots shift packet
// numbers in place); use one Runner per goroutine, or the package-level Run
// which draws exclusively-owned Runners from a sync.Pool.
type Runner struct {
	sc    scratch
	cache [4]compiledEntry
	next  int
}

// NewRunner returns an empty Runner; buffers grow on first use.
func NewRunner() *Runner { return &Runner{} }

// Run executes the scheme, one slot at a time. The schedule it replays is
// the scheme's own or — when the scheme is periodic and the horizon makes it
// worthwhile — a compiled snapshot; the semantics and the Result are
// identical either way. Under Options.Churn the topology is a sequence of
// epochs: the churn source runs at the boundary entering each slot, and
// every epoch bump re-chooses the schedule for the mutated topology. A
// static run is the zero-epoch case: the schedule is chosen once. The loop
// leaves early when the window is complete and nothing outside the engine
// could read a later slot (Options.Slots).
func (r *Runner) Run(s core.Scheme, opt Options) (*Result, error) {
	e, err := r.runSlots(s, opt)
	if err != nil {
		return nil, err
	}
	return e.finish()
}

// runSlots is the slot loop: it returns the engine as the last slot left it,
// for finish to summarise.
func (r *Runner) runSlots(s core.Scheme, opt Options) (*engine, error) {
	// Compile before sizing the engine: the snapshot's append garbage is
	// collected while the heap is still small, instead of riding the GC goal
	// the arrival matrix sets (a 2× peak-RSS difference on dense-long).
	cur := r.prepared(s, opt.Slots)
	// A snapshot of a topology nothing will mutate knows every packet the
	// run can move; a live one is re-snapshotted per epoch and does not.
	var pktBound core.Packet
	if c, ok := cur.(*core.CompiledScheme); ok && opt.Churn == nil {
		pktBound = c.PacketBound(opt.Slots)
	}
	e, err := newEngine(s, opt, &r.sc, pktBound)
	if err != nil {
		return nil, err
	}
	lastSwap := core.Slot(0)
	for t := core.Slot(0); t < opt.Slots; t++ {
		if e.dyn != nil {
			changed, err := e.churnStep(t)
			if err != nil {
				return nil, err
			}
			if changed {
				// A snapshot only pays off when epochs outlive their own
				// compile window: if the epoch that just ended was too short
				// to amortize one, churn is assumed sustained and the fresh
				// epoch is interpreted, as it is when too little of the run
				// remains.
				cur = r.prepared(s, min(t-lastSwap, opt.Slots-t))
				lastSwap = t
			}
		}
		if err := e.step(t, cur.Transmissions(t)); err != nil {
			return nil, err
		}
		if e.pending == 0 && e.direct && e.dyn == nil {
			// Every receiver holds the whole window and nothing outside the
			// engine can read a later slot: the Result is already decided.
			break
		}
	}
	return e, nil
}

// RunParallel is Run: the engine is single-threaded (PERFORMANCE.md, "Why
// the engine is single-threaded") and results never depended on the worker
// count. Kept for its last caller, bench/pipeline.go.
func (r *Runner) RunParallel(s core.Scheme, opt Options, _ int) (*Result, error) {
	return r.Run(s, opt)
}

// Close is a no-op: a Runner holds no goroutines. Kept for its last caller,
// bench/pipeline.go.
func (r *Runner) Close() {}

// prepared substitutes a compiled snapshot for a periodic scheme when the
// one-time compile cost fits inside the horizon's own slot-generation budget
// (core.CompileForRun owns that rule), caching outcomes (including failures)
// per scheme identity.
func (r *Runner) prepared(s core.Scheme, horizon core.Slot) core.Scheme {
	if _, ok := s.(*core.CompiledScheme); ok {
		return s
	}
	if _, dyn := s.(core.DynamicScheme); dyn {
		// Never cache (or serve a cached snapshot of) a scheme whose
		// topology can mutate: an identity-keyed entry compiled at one epoch
		// would silently replay stale slots at a later one. Snapshot the
		// current epoch afresh instead.
		if c := core.CompileForRun(s, horizon); c != nil {
			return c
		}
		return s
	}
	t := reflect.TypeOf(s)
	if t == nil || !t.Comparable() {
		return s
	}
	for i := range r.cache {
		if r.cache[i].src == s {
			if r.cache[i].dst != nil {
				return r.cache[i].dst
			}
			return s
		}
	}
	if !core.WorthCompiling(s, horizon) {
		// Too short a horizon to amortize the compile this run; don't cache
		// the decision — a later, longer run may still benefit.
		return s
	}
	c := core.CompileSchedule(s)
	ent := compiledEntry{src: s}
	if c != nil {
		ent.dst = c
	}
	r.cache[r.next] = ent
	r.next = (r.next + 1) % len(r.cache)
	if c == nil {
		return s
	}
	return c
}

// runnerPool hands out exclusively-owned Runners to the package-level Run,
// so concurrent calls never share scratch or compiled snapshots.
var runnerPool = sync.Pool{New: func() interface{} { return NewRunner() }}

// Run executes the scheme on an exclusively-owned Runner drawn from an
// internal pool, so repeated runs reuse engine scratch memory and compiled
// schedules; hold an explicit Runner to control that reuse manually.
func Run(s core.Scheme, opt Options) (*Result, error) {
	r := runnerPool.Get().(*Runner)
	res, err := r.Run(s, opt)
	// Drop the run's references (observer, hooks, dynamic scheme) before
	// pooling so a parked Runner pins only its own scratch.
	r.sc.eng = engine{}
	runnerPool.Put(r)
	return res, err
}
