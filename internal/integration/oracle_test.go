package integration

import (
	"fmt"
	"slices"

	"streamcast/internal/core"
	"streamcast/internal/slotsim"
)

// The oracle is the second opinion on PAPER.md §1's slot model: the short
// interpreter the slot engine (slotsim) and the static verifier (check) are
// judged by. It takes what the engine takes — a core.Scheme and a
// slotsim.Options — and is written to be read, not to be fast: maps and
// structs, every slot of the horizon, the scheme asked slot by slot. It has
// none of the engine's machinery (no compiled snapshot, no struct-of-arrays
// state, no stop rule, no bound on the packet numbers it tracks, no tiled
// epilogue) and calls nothing slotsim or check defines: it uses the Options,
// Result and Violation types, and reaches the fault and churn hooks through
// the interfaces Options carries.
//
// The model. Time is slotted. In slot t a node may send up to its send
// capacity (the source d, a receiver 1) and receive up to its receive capacity
// (1). A packet sent in slot t over a link of latency L arrives at the end of
// slot t+L-1, and its receiver may forward it from the slot after. The source
// holds every packet from the start, except that a Live source holds packet p
// only from slot p. A node plays packet j at the end of slot s+j, where s —
// its start delay — is the least s that never stalls: max over the window's
// packets of (arrival − j).
//
// Two definitions the oracle takes from the engine's documentation rather
// than from the paper, which streams without loss: a packet that never arrives
// is skipped, not waited for (it is left out of the start delay, and playback
// still passes its position, so buffer occupancy at the end of slot t is
// arrivals so far less positions passed, min(max(t−s, 0), Packets)); and
// SlotsUsed counts a window arrival even if a join later wiped the id it
// arrived at. The engine's tracking bound (it forgets packets numbered at or
// past a bound no registry schedule reaches) has no counterpart here; no
// registry input tells the two apart.
type oracleRun struct {
	s   core.Scheme
	opt slotsim.Options
	// n is the id space: the receivers, or the churn source's ceiling.
	n int
	// have[id][p] is the slot at the end of which id received packet p.
	have oracleCells
	// inflight[t] are the transmissions arriving at the end of slot t, in the
	// order they were sent.
	inflight map[core.Slot][]core.Transmission
	// last is the latest slot in which a window packet arrived.
	last core.Slot
}

// oracleCells is every arrival of a run: node → packet → arrival slot.
type oracleCells map[core.NodeID]map[core.Packet]core.Slot

// oracle interprets the scheme over the whole horizon. It returns the Result
// and the arrival cells, or the first broken constraint as a
// *slotsim.Violation (slot, kind, transmission), or — for an incomplete
// window without AllowIncomplete, or a failing churn source — another error.
func oracle(s core.Scheme, opt slotsim.Options) (*slotsim.Result, oracleCells, error) {
	o := &oracleRun{s: s, opt: opt, n: s.NumReceivers(),
		have: oracleCells{}, inflight: map[core.Slot][]core.Transmission{}}
	if opt.Churn != nil {
		o.n = max(o.n, opt.Churn.MaxNodes())
	}
	for t := core.Slot(0); t < opt.Slots; t++ {
		if opt.Churn != nil {
			if err := o.barrier(t); err != nil {
				return nil, nil, err
			}
		}
		if err := o.slot(t, s.Transmissions(t)); err != nil {
			return nil, nil, err
		}
	}
	return o.result()
}

// barrier lets the churn source change the membership on entering slot t. An
// id handed to a joining member starts empty: what its previous occupant
// received, and what was in flight to it, is gone.
func (o *oracleRun) barrier(t core.Slot) error {
	stats, err := o.opt.Churn.Step(t, o.s.(core.DynamicScheme))
	if err != nil {
		return err
	}
	for _, st := range stats {
		if st.Leave || st.Node < 1 || int(st.Node) > o.n {
			continue
		}
		delete(o.have, st.Node)
		for at, txs := range o.inflight {
			o.inflight[at] = slices.DeleteFunc(txs, func(tx core.Transmission) bool { return tx.To == st.Node })
		}
	}
	if nr := o.s.NumReceivers(); nr > o.n {
		return fmt.Errorf("churn grew the id space to %d nodes", nr)
	}
	return nil
}

// holds reports whether id can send packet p during slot t.
func (o *oracleRun) holds(id core.NodeID, p core.Packet, t core.Slot) bool {
	if id == core.SourceID {
		return p >= 0 && (o.opt.Mode != core.Live || core.Slot(p) <= t)
	}
	at, ok := o.have[id][p]
	return ok && at < t
}

func (o *oracleRun) sendCap(id core.NodeID) int {
	switch {
	case o.opt.SendCap != nil:
		return o.opt.SendCap(id)
	case id == core.SourceID:
		return o.s.SourceCapacity()
	}
	return 1
}

func (o *oracleRun) recvCap(id core.NodeID) int {
	if o.opt.RecvCap != nil {
		return o.opt.RecvCap(id)
	}
	return 1
}

// slot executes slot t: who sends, what the links do to it, who receives.
func (o *oracleRun) slot(t core.Slot, scheduled []core.Transmission) error {
	txs := slices.Clone(scheduled)
	if o.opt.SkipUnavailable {
		// A relay that lacks the packet stays silent: the loss cascades.
		txs = slices.DeleteFunc(txs, func(tx core.Transmission) bool { return !o.holds(tx.From, tx.Packet, t) })
	}

	// Senders, in schedule order.
	sent := map[core.NodeID]int{}
	for _, tx := range txs {
		sent[tx.From]++
		switch {
		case tx.From < 0 || int(tx.From) > o.n || tx.To < 0 || int(tx.To) > o.n:
			return &slotsim.Violation{Slot: t, Kind: "node id out of range", Tx: tx}
		case tx.From == tx.To:
			return &slotsim.Violation{Slot: t, Kind: "self transmission", Tx: tx}
		case sent[tx.From] > o.sendCap(tx.From):
			return &slotsim.Violation{Slot: t, Kind: "send capacity exceeded", Tx: tx}
		case !o.holds(tx.From, tx.Packet, t):
			return &slotsim.Violation{Slot: t, Kind: "sender does not hold packet", Tx: tx}
		}
	}

	// Links: a lost transmission has spent its sender's capacity and arrives
	// nowhere; the rest land after their latency, stretched by any injected
	// delay. The hooks are asked once per transmission, in schedule order.
	for _, tx := range txs {
		if o.opt.Drop != nil && o.opt.Drop(tx, t) {
			continue
		}
		if o.opt.Inject != nil && o.opt.Inject.DropTx(tx, t) {
			continue
		}
		l := core.Slot(1)
		if o.opt.Latency != nil {
			l = o.opt.Latency(tx.From, tx.To)
		}
		if o.opt.Inject != nil {
			l += o.opt.Inject.DelayTx(tx, t)
		}
		if l < 1 {
			return fmt.Errorf("slot %d: %s would arrive before it was sent (latency %d)", t, tx, l)
		}
		o.inflight[t+l-1] = append(o.inflight[t+l-1], tx)
	}

	// Receivers, in sending order. The source discards what it is sent.
	got := map[core.NodeID]int{}
	for _, tx := range o.inflight[t] {
		got[tx.To]++
		if got[tx.To] > o.recvCap(tx.To) {
			return &slotsim.Violation{Slot: t, Kind: "receive capacity exceeded", Tx: tx}
		}
		if tx.To == core.SourceID {
			continue
		}
		if _, dup := o.have[tx.To][tx.Packet]; dup {
			if !o.opt.AllowDuplicates {
				return &slotsim.Violation{Slot: t, Kind: "duplicate packet", Tx: tx}
			}
			continue
		}
		if o.have[tx.To] == nil {
			o.have[tx.To] = map[core.Packet]core.Slot{}
		}
		o.have[tx.To][tx.Packet] = t
		if tx.Packet < o.opt.Packets {
			o.last = max(o.last, t)
		}
	}
	delete(o.inflight, t)
	return nil
}

// result reads the QoS quantities off the arrivals of the window's packets.
func (o *oracleRun) result() (*slotsim.Result, oracleCells, error) {
	r := &slotsim.Result{
		N: o.n, Packets: o.opt.Packets, SlotsUsed: o.last + 1,
		StartDelay: make([]core.Slot, o.n+1),
		MaxBuffer:  make([]int, o.n+1),
		Missing:    make([]int, o.n+1),
	}
	window := int(o.opt.Packets)
	for id := core.NodeID(1); int(id) <= o.n; id++ {
		var arrived []core.Slot // arrival slots of the window packets id holds
		for j := core.Packet(0); j < o.opt.Packets; j++ {
			at, ok := o.have[id][j]
			if !ok {
				if !o.opt.AllowIncomplete {
					return nil, nil, fmt.Errorf("node %d never received packet %d", id, j)
				}
				r.Missing[id]++
				continue
			}
			if len(arrived) == 0 || at-core.Slot(j) > r.StartDelay[id] {
				r.StartDelay[id] = at - core.Slot(j)
			}
			arrived = append(arrived, at)
		}
		// Occupancy at the end of each slot: a packet arriving in slot t
		// counts, and so does the one played in slot t.
		for t := core.Slot(0); len(arrived) > 0 && t <= slices.Max(arrived); t++ {
			held := 0
			for _, at := range arrived {
				if at <= t {
					held++
				}
			}
			passed := min(max(int(t-r.StartDelay[id]), 0), window)
			r.MaxBuffer[id] = max(r.MaxBuffer[id], held-passed)
		}
	}
	return r, o.have, nil
}
