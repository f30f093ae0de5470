package slotsim

import (
	"sync"

	"streamcast/internal/core"
	"streamcast/internal/obs"
)

// scratch is the reusable allocation arena of one Runner: every buffer the
// engine needs per run, grown on demand and recycled across runs. The
// per-slot hot path (step/route/deliver/finish) allocates nothing in steady
// state; TestSteadyStateAllocFree pins that invariant on every branch.
//
// All per-node state is struct-of-arrays (soa.go): flat arrays indexed by
// NodeID, with the arrival ledger packed into bit arrays.
type scratch struct {
	// The arrival ledger (ledger.go). words describes the layout of the run
	// that last wrote it, so that the next run can undo exactly those writes
	// (with maxArr, which bounds its slot rows).
	have      []uint64            // packet-major presence bits
	dirtyRows []uint64            // packet rows of have written this run
	words     int                 // uint64 words per presence or slot row
	slots     []uint64            // slot-major window arrival bits
	over      []overflow          // window arrivals past a node's first in one slot
	sentSt    []uint64            // packed send counters: epoch stamp<<32 | count
	recvSt    []uint64            // packed receive counters, same layout
	tick      uint32              // current epoch; monotonic across runs
	cursor    []uint64            // packed playback cursors: worstLag<<32 | got
	maxArr    int32               // last window arrival slot (-1 = none yet)
	sendTab   []int32             // precomputed send capacities (default funcs only)
	recvTab   []int32             // precomputed receive capacities
	tabN      int                 // nodes the capacity tables cover (0 = stale)
	tabSrcCap int32               // source capacity the tables were filled for
	filter    []core.Transmission // SkipUnavailable keep-list
	arrive    []core.Transmission // same-slot arrival list
	ring      txRing              // in-flight transmissions keyed by arrival slot
	lost      []int               // the slot's Sent indexes Inject lost
	dups      []int               // the slot's duplicate arrival indexes
	view      obs.SlotView        // the slot lent to the observer
	viol      obs.Violation       // the view's violation, when it has one
	eng       engine              // engine state, reset per run
}

// Runner owns the engine's scratch memory, so repeated runs — experiment
// sweeps, benchmarks, fault corpora — reuse it instead of re-allocating. A
// Runner is NOT safe for concurrent use; use one Runner per goroutine, or the
// package-level Run which draws exclusively-owned Runners from a sync.Pool.
type Runner struct {
	sc scratch
}

// NewRunner returns an empty Runner; buffers grow on first use.
func NewRunner() *Runner { return &Runner{} }

// Run executes the scheme, one slot at a time, asking it for each slot's
// transmissions. Under Options.Churn the topology is a sequence of epochs: the
// churn source runs at the boundary entering each slot, and the scheme's next
// slot reflects the mutated topology. The loop leaves early when the window is
// complete and nothing outside the engine could read a later slot
// (Options.Slots).
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
	e, err := newEngine(s, opt, &r.sc)
	if err != nil {
		return nil, err
	}
	for t := core.Slot(0); t < opt.Slots; t++ {
		if e.dyn != nil {
			if err := e.churnStep(t); err != nil {
				return nil, err
			}
		}
		if err := e.step(t, s.Transmissions(t)); err != nil {
			return nil, err
		}
		if e.pending == 0 && e.direct {
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

// runnerPool hands out exclusively-owned Runners to the package-level Run,
// so concurrent calls never share scratch.
var runnerPool = sync.Pool{New: func() interface{} { return NewRunner() }}

// Run executes the scheme on an exclusively-owned Runner drawn from an
// internal pool, so repeated runs reuse engine scratch memory; hold an
// explicit Runner to control that reuse manually.
func Run(s core.Scheme, opt Options) (*Result, error) {
	r := runnerPool.Get().(*Runner)
	res, err := r.Run(s, opt)
	// Drop the run's references (observer, hooks, dynamic scheme, the
	// schedule slices the last view lent) before pooling so a parked Runner
	// pins only its own scratch.
	r.sc.eng, r.sc.view = engine{}, obs.SlotView{}
	runnerPool.Put(r)
	return res, err
}
