package slotsim

import (
	"reflect"
	"testing"

	"streamcast/internal/core"
	"streamcast/internal/obs"
)

// countingScheme counts the slots a run asks its schedule for.
type countingScheme struct {
	*stubScheme
	asked int
	last  core.Slot
}

func (c *countingScheme) Transmissions(t core.Slot) []core.Transmission {
	c.asked++
	c.last = t
	return c.stubScheme.Transmissions(t)
}

// idleInjector is an Injector that disturbs nothing; attaching it only takes
// the run off the direct path.
type idleInjector struct{}

func (idleInjector) DropTx(core.Transmission, core.Slot) bool       { return false }
func (idleInjector) DelayTx(core.Transmission, core.Slot) core.Slot { return 0 }

// chainOfTwo is S→1 in slot 0, 1→2 in slot 1: a one-packet window that is
// complete at the end of slot 1.
func chainOfTwo() *stubScheme {
	return &stubScheme{n: 2, srcCap: 1, slots: map[core.Slot][]core.Transmission{
		0: {tx(0, 1, 0)},
		1: {tx(1, 2, 0)},
	}}
}

// TestStopRule pins the contract of ending a run when its window is complete.
//
// A bare run — nothing attached that could read a later slot — executes slots
// 0..c, where c is the first slot at whose end every receiver holds the whole
// window, and validates exactly those. So a constraint broken at or before c
// aborts it with the very *Violation a full-horizon run reports, and one
// scheduled after c is not seen by it at all, while an observed or injected
// run of the same schedule, which replays every slot, reports it. That
// asymmetry is a decision, not an accident: the engine vouches for the slots
// that produced its Result, and a schedule's validity over a stated horizon
// is check.Static's question, not
// a side effect of how long a measurement happened to run.
func TestStopRule(t *testing.T) {
	watched := map[string]func(*Options){
		"observer": func(o *Options) { o.Observer = obs.SlotFunc(func(*obs.SlotView) {}) },
		"injector": func(o *Options) { o.Inject = idleInjector{} },
	}
	base := Options{Slots: 6, Packets: 1}

	t.Run("violation before completion", func(t *testing.T) {
		s := chainOfTwo()
		s.slots[1] = append(s.slots[1], tx(1, 2, 0)) // node 1 sends twice in slot 1
		want := &Violation{Slot: 1, Kind: "send capacity exceeded", Tx: tx(1, 2, 0)}
		_, err := Run(s, base)
		if !reflect.DeepEqual(err, error(want)) {
			t.Fatalf("bare run: got %v, want %v", err, want)
		}
		for name, attach := range watched {
			opt := base
			attach(&opt)
			if _, err := Run(s, opt); !reflect.DeepEqual(err, error(want)) {
				t.Errorf("%s run: got %v, want %v", name, err, want)
			}
		}
	})

	t.Run("violation after completion", func(t *testing.T) {
		clean, cleanCells, err := runCells(chainOfTwo(), base)
		if err != nil {
			t.Fatal(err)
		}
		s := chainOfTwo()
		s.slots[3] = []core.Transmission{tx(1, 2, 0)} // a duplicate, two slots after the window closed
		res, cells, err := runCells(s, base)
		if err != nil {
			t.Fatalf("bare run saw slot 3: %v", err)
		}
		if !reflect.DeepEqual(res, clean) || !reflect.DeepEqual(cells, cleanCells) {
			t.Error("bare run's Result or cells differ from the clean schedule's")
		}
		want := &Violation{Slot: 3, Kind: "duplicate packet", Tx: tx(1, 2, 0)}
		for name, attach := range watched {
			opt := base
			attach(&opt)
			if _, err := Run(s, opt); !reflect.DeepEqual(err, error(want)) {
				t.Errorf("%s run: got %v, want %v", name, err, want)
			}
		}
	})

	t.Run("slots executed", func(t *testing.T) {
		c := &countingScheme{stubScheme: chainOfTwo()}
		if _, err := Run(c, base); err != nil {
			t.Fatal(err)
		}
		if c.asked != 2 || c.last != 1 {
			t.Errorf("complete at slot 1: asked for %d slots, last %d; want 2, last 1", c.asked, c.last)
		}
		for name, attach := range watched {
			c := &countingScheme{stubScheme: chainOfTwo()}
			opt := base
			attach(&opt)
			if _, err := Run(c, opt); err != nil {
				t.Fatal(err)
			}
			if c.asked != int(base.Slots) {
				t.Errorf("%s run asked for %d slots, want the whole horizon %d", name, c.asked, base.Slots)
			}
		}
		// Node 3 is never served: the window cannot complete, so the horizon
		// is the only thing that ends the run.
		starved := chainOfTwo()
		starved.n = 3
		c = &countingScheme{stubScheme: starved}
		opt := base
		opt.AllowIncomplete = true
		res, err := Run(c, opt)
		if err != nil {
			t.Fatal(err)
		}
		if c.asked != int(base.Slots) || c.last != base.Slots-1 {
			t.Errorf("starved run asked for %d slots, last %d; want %d, last %d", c.asked, c.last, base.Slots, base.Slots-1)
		}
		if res.Missing[3] != 1 || res.Missing[1]+res.Missing[2] != 0 {
			t.Errorf("Missing = %v, want only node 3 short", res.Missing)
		}
	})
}

// TestRunnerReuseAfterEarlyStop: a run that stops early leaves its Runner as
// reusable as one that ran out its horizon — the rows it dirtied (one of them
// past its window) are cleared for the next run, and the completion counter
// starts over, so the same run repeated stops at the same slot again.
func TestRunnerReuseAfterEarlyStop(t *testing.T) {
	// a: packets 0..2 down the chain S→1→2 with a 2-packet window, complete at
	// the end of slot 2 — by which time node 1 also holds packet 2.
	a := &stubScheme{n: 2, srcCap: 1, slots: map[core.Slot][]core.Transmission{
		0: {tx(0, 1, 0)},
		1: {tx(0, 1, 1), tx(1, 2, 0)},
		2: {tx(0, 1, 2), tx(1, 2, 1)},
	}}
	optA := Options{Slots: 8, Packets: 2}
	// b: a 3-packet window over the same ids in which node 1 gets packet 2
	// last and late; a stale row 2 would make that delivery a duplicate.
	b := &stubScheme{n: 2, srcCap: 1, slots: map[core.Slot][]core.Transmission{
		0: {tx(0, 2, 0)},
		1: {tx(0, 2, 1), tx(2, 1, 0)},
		2: {tx(0, 2, 2), tx(2, 1, 1)},
		5: {tx(2, 1, 2)},
	}}
	optB := Options{Slots: 8, Packets: 3}
	// Results are compared cells included: every run keeps its own.
	type outcome struct {
		res   *Result
		cells *Arrivals
	}
	run := func(r *Runner, s core.Scheme, opt Options) (outcome, error) {
		opt.Arrivals = new(Arrivals)
		res, err := r.Run(s, opt)
		return outcome{res, opt.Arrivals}, err
	}
	wantA, err := run(NewRunner(), a, optA)
	if err != nil {
		t.Fatal(err)
	}
	wantB, err := run(NewRunner(), b, optB)
	if err != nil {
		t.Fatal(err)
	}

	r := NewRunner()
	for round := 0; round < 3; round++ {
		c := &countingScheme{stubScheme: a}
		gotA, err := run(r, c, optA)
		if err != nil {
			t.Fatalf("round %d: a: %v", round, err)
		}
		if c.asked != 3 {
			t.Errorf("round %d: a asked for %d slots, want 3", round, c.asked)
		}
		gotB, err := run(r, b, optB)
		if err != nil {
			t.Fatalf("round %d: b after an early-stopped a: %v", round, err)
		}
		if !reflect.DeepEqual(gotA, wantA) || !reflect.DeepEqual(gotB, wantB) {
			t.Fatalf("round %d: Results drifted across reuse of an early-stopped Runner", round)
		}
	}
}

// TestObservedRunLendsSchedule: an observer changes no slot's work. Without
// Inject the arrivals of every view are the schedule's own slice, as on a
// bare run; with Inject they are route's copy.
func TestObservedRunLendsSchedule(t *testing.T) {
	s := chainOfTwo()
	for _, inject := range []Injector{nil, idleInjector{}} {
		lent, views := 0, 0
		opt := Options{Slots: 3, Packets: 1, Inject: inject, Observer: obs.SlotFunc(func(v *obs.SlotView) {
			views++
			if own := s.slots[v.T]; len(own) > 0 && &v.Sent[0] == &own[0] && &v.Arrivals[0] == &own[0] {
				lent++
			}
		})}
		if _, err := Run(s, opt); err != nil {
			t.Fatal(err)
		}
		want := len(s.slots)
		if inject != nil {
			want = 0
		}
		if views != 3 || lent != want {
			t.Errorf("inject %v: %d of %d views lend the schedule's slice, want %d of 3", inject, lent, views, want)
		}
	}
}
