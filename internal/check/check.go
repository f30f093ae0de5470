package check

import (
	"fmt"
	"math/bits"
	"slices"
	"strconv"
	"strings"

	"streamcast/internal/core"
)

// Issue kinds. The first block reuses the slotsim Violation kind strings so
// static findings map one-to-one onto the violation class the engine would
// raise for the same defect.
const (
	KindRange     = "node id out of range"
	KindSelf      = "self transmission"
	KindSendCap   = "send capacity exceeded"
	KindNotHeld   = "sender does not hold packet"
	KindRecvCap   = "receive capacity exceeded"
	KindDuplicate = "duplicate packet"

	KindBadLatency  = "latency below one slot"
	KindInterior    = "interior-disjointness violated"
	KindFanout      = "tree fanout exceeds degree"
	KindDegree      = "neighbor bound exceeded"
	KindMesh        = "scheduled edge missing from mesh"
	KindDelayBound  = "delay bound exceeded"
	KindBufferBound = "buffer bound exceeded"
	KindIncomplete  = "incomplete delivery"
)

// Issue is one defect found by the static verifier.
type Issue struct {
	// Slot is the slot the defect manifests in (-1 for structural findings
	// that are not tied to a slot).
	Slot core.Slot
	// Kind classifies the defect; schedule-level kinds match the slotsim
	// Violation kinds.
	Kind string
	// Tx is the offending transmission for schedule-level findings.
	Tx core.Transmission
	// Detail pinpoints the defect (node, bound, measured value).
	Detail string
}

// String renders the issue with its precise location.
func (i Issue) String() string {
	var b strings.Builder
	if i.Slot >= 0 {
		fmt.Fprintf(&b, "slot %d: ", i.Slot)
	}
	b.WriteString(i.Kind)
	if (i.Tx != core.Transmission{}) {
		fmt.Fprintf(&b, " (%s)", i.Tx)
	}
	if i.Detail != "" {
		fmt.Fprintf(&b, ": %s", i.Detail)
	}
	return b.String()
}

// Options configures one static verification.
type Options struct {
	// Horizon is the number of slots to interpret.
	Horizon core.Slot
	// Packets is the measurement window for the delay/buffer/completeness
	// cross-checks.
	Packets core.Packet
	// Mode is the data-availability assumption at the source.
	Mode core.StreamMode
	// SendCap overrides per-node send capacity (nil: SourceCapacity for the
	// source, 1 otherwise).
	SendCap func(id core.NodeID) int
	// RecvCap overrides per-node receive capacity (nil: 1).
	RecvCap func(id core.NodeID) int
	// Latency overrides per-link latency in slots (nil: 1).
	Latency func(from, to core.NodeID) core.Slot
	// TreeDegree, when > 0, enables the multi-tree structural audit: packet
	// j belongs to tree j mod TreeDegree, every non-source sender must
	// relay a single residue class (interior-disjointness) and fan out to
	// at most TreeDegree children within it.
	TreeDegree int
	// TreeExempt marks nodes excluded from the multi-tree audit:
	// infrastructure relays (cluster super nodes, local roots) that
	// legitimately forward every residue class.
	TreeExempt map[core.NodeID]bool
	// MaxNeighbors, when > 0, bounds every node's Neighbors() degree.
	MaxNeighbors int
	// CheckMesh requires every scheduled edge to appear in Neighbors().
	CheckMesh bool
	// DelayBound, when > 0, is the closed-form worst-case playback delay
	// the measured schedule must not exceed.
	DelayBound core.Slot
	// BufferBound, when > 0, bounds the per-node peak buffer occupancy.
	BufferBound int
	// AllowIncomplete skips the completeness check (gossip-style schemes).
	AllowIncomplete bool
	// MaxIssues caps the number of recorded issues (0: 32). Counting stops
	// early but the pass always finishes, so summary stats stay valid.
	MaxIssues int
}

// Report is the outcome of one static verification.
type Report struct {
	// Scheme is the verified scheme's name.
	Scheme string
	// Issues holds the defects found, in discovery order, capped at
	// Options.MaxIssues.
	Issues []Issue
	// Truncated is set when more issues were found than recorded.
	Truncated bool
	// WorstDelay is the schedule's worst playback start slot over the
	// measurement window (receivers with complete windows only).
	WorstDelay core.Slot
	// WorstBuffer is the peak buffer occupancy over all receivers.
	WorstBuffer int
	// MaxNeighbors is the largest Neighbors() degree observed.
	MaxNeighbors int
}

// OK reports whether the scheme passed every enabled check.
func (r *Report) OK() bool { return len(r.Issues) == 0 }

// Err summarizes a failed report as an error, nil when the report is clean.
func (r *Report) Err() error {
	if r.OK() {
		return nil
	}
	head := r.Issues[0].String()
	if len(r.Issues) == 1 && !r.Truncated {
		return fmt.Errorf("check: %s: %s", r.Scheme, head)
	}
	suffix := ""
	if r.Truncated {
		suffix = "+"
	}
	return fmt.Errorf("check: %s: %d%s issues, first: %s", r.Scheme, len(r.Issues), suffix, head)
}

// HasKind reports whether any recorded issue has the given kind.
func (r *Report) HasKind(kind string) bool {
	for _, i := range r.Issues {
		if i.Kind == kind {
			return true
		}
	}
	return false
}

// verifier is the working state of one Static run.
type verifier struct {
	scheme core.Scheme
	opt    Options
	n      int
	srcCap int
	maxPkt core.Packet
	// txAt generates slot t's transmissions. Static reads the scheme;
	// VerifyCompiled substitutes a direct interpretation of the compiled
	// window so the snapshot is proven, not the generator.
	txAt func(t core.Slot) []core.Transmission
	// arrival is the node-major arrival matrix in one flat array: cell
	// id*maxPkt+p holds the slot packet p reached node id plus one, 0 while
	// it has not (the encoding slotsim stores: a fresh matrix is all unset).
	arrival []int32
	report  *Report

	// Multi-tree audit (TreeDegree > 0). residues holds resWords mask words
	// per node: bit r is set once the node relays a packet of residue r.
	// kids holds TreeDegree+2 cells per node: the first residue class it
	// relayed, then the distinct children it feeds there (both plus one,
	// 0 = free). Children in a further class — the node is in violation
	// already — go to spill, keyed by {node, residue}.
	residues []uint64
	resWords int
	kids     []int32
	spill    map[[2]int][]core.NodeID

	// Mesh audit (MaxNeighbors > 0 or CheckMesh). lists is Neighbors() by
	// id, nil for a node the scheme does not list (the source, usually);
	// strays are listed ids outside 0..n. offMesh buffers the scheduled
	// edges found missing while the schedule is interpreted: they are filed
	// after the interpreter's findings and the degree audit.
	mesh    map[core.NodeID][]core.NodeID
	lists   [][]core.NodeID
	strays  []core.NodeID
	offMesh []Issue
}

// Static verifies the scheme's schedule and mesh without running the
// simulation engine. One pass over the schedule relaxes arrival times,
// checks the slot model, gathers the multi-tree evidence and tests every
// scheduled edge against the mesh; the delay and buffer bounds are then read
// off the arrival matrix. It returns an error only for unusable
// configuration; scheme defects land in the report.
func Static(s core.Scheme, opt Options) (*Report, error) {
	if opt.Horizon <= 0 {
		return nil, fmt.Errorf("check: Horizon must be > 0, got %d", opt.Horizon)
	}
	if opt.Packets <= 0 {
		return nil, fmt.Errorf("check: Packets must be > 0, got %d", opt.Packets)
	}
	n := s.NumReceivers()
	if n < 1 {
		return nil, fmt.Errorf("check: scheme has %d receivers", n)
	}
	if err := arrivalFits(s, opt); err != nil {
		return nil, err
	}
	// A periodic scheme is verified against a compiled snapshot of one
	// schedule period when the horizon amortises compiling it; a snapshot
	// the caller already holds (spec.Run.Schedule) passes through unchanged.
	if c := core.CompileForRun(s, opt.Horizon); c != nil {
		s = c
	}
	v := newVerifier(s, opt)
	v.verify()
	return v.report, nil
}

// arrivalFits refuses, before anything is allocated, a verification whose
// arrival matrix — one int32 cell per node per packet the source could emit
// in the horizon — would exceed core.MaxArrivalCells, with the sized error
// the engine returns for the same run. The size is computed in float64:
// exact far past the ceiling, and a hostile horizon × population cannot
// overflow it.
func arrivalFits(s core.Scheme, opt Options) error {
	n, srcCap := s.NumReceivers(), s.SourceCapacity()
	rows := max((float64(opt.Horizon)+1)*float64(srcCap), float64(opt.Packets))
	if need := float64(n+1) * rows; need > core.MaxArrivalCells {
		const gib = 1 << 30
		return fmt.Errorf("check: arrival matrix too large: N=%d nodes × %.0f packet rows needs %.1f GiB, over the %d GiB ceiling (core.MaxArrivalCells); shorten the horizon (%d slots) or the population",
			n, rows, need*4/gib, core.MaxArrivalCells*4/gib, opt.Horizon)
	}
	return nil
}

// newVerifier builds the working state shared by Static and VerifyCompiled:
// option defaults, the arrival matrix (arrivalFits has vouched for its
// size), and the schedule reader (the scheme itself until a caller overrides
// txAt).
func newVerifier(s core.Scheme, opt Options) *verifier {
	n := s.NumReceivers()
	if opt.MaxIssues == 0 {
		opt.MaxIssues = 32
	}
	srcCap := s.SourceCapacity()
	maxPkt := max(core.Packet(int(opt.Horizon)*srcCap+srcCap), opt.Packets)
	v := &verifier{
		scheme:  s,
		opt:     opt,
		n:       n,
		srcCap:  srcCap,
		maxPkt:  maxPkt,
		txAt:    s.Transmissions,
		arrival: make([]int32, (n+1)*int(maxPkt)),
		report:  &Report{Scheme: s.Name()},
	}
	if d := opt.TreeDegree; d > 0 {
		v.resWords = (d + 63) / 64
		v.residues = make([]uint64, (n+1)*v.resWords)
		v.kids = make([]int32, (n+1)*(d+2))
	}
	return v
}

// verify runs the passes in the order their findings are filed: the
// schedule interpreter (which also buffers the missing mesh edges), the
// degree audit, the buffered mesh findings, the bound cross-check.
func (v *verifier) verify() {
	v.loadMesh()
	v.interpret()
	v.auditDegrees()
	for _, is := range v.offMesh {
		v.issue(is)
	}
	v.crossCheck()
}

// issue records a finding, honoring the cap.
func (v *verifier) issue(i Issue) {
	if len(v.report.Issues) >= v.opt.MaxIssues {
		v.report.Truncated = true
		return
	}
	v.report.Issues = append(v.report.Issues, i)
}

// holds reports whether the node can transmit packet p during slot t,
// mirroring the engine's availability rule.
func (v *verifier) holds(id core.NodeID, p core.Packet, t core.Slot) bool {
	if p < 0 {
		return false
	}
	if id == core.SourceID {
		if v.opt.Mode == core.Live {
			return core.Slot(int(p)) <= t
		}
		return true
	}
	if p >= v.maxPkt {
		return false
	}
	a := v.arrival[int(id)*int(v.maxPkt)+int(p)]
	return a != 0 && core.Slot(a) <= t // it arrived in a slot before t
}

// interpret relaxes arrival times over the schedule, checking the per-slot
// model constraints and the mesh membership of every edge along the way.
func (v *verifier) interpret() {
	inflight := make(map[core.Slot][]core.Transmission)
	sent := make([]int, v.n+1)
	received := make([]int, v.n+1)
	var arrivals []core.Transmission
	for t := core.Slot(0); t < v.opt.Horizon; t++ {
		clear(sent)
		arrivals = append(arrivals[:0], inflight[t]...)
		delete(inflight, t)
		for _, tx := range v.txAt(t) {
			if tx.From < 0 || int(tx.From) > v.n || tx.To < 0 || int(tx.To) > v.n {
				v.issue(Issue{Slot: t, Kind: KindRange, Tx: tx})
				continue
			}
			if tx.From == tx.To {
				v.issue(Issue{Slot: t, Kind: KindSelf, Tx: tx})
				continue
			}
			if v.opt.CheckMesh {
				v.checkEdge(t, tx)
			}
			sendCap := 1
			if v.opt.SendCap != nil {
				sendCap = v.opt.SendCap(tx.From)
			} else if tx.From == core.SourceID {
				sendCap = v.srcCap
			}
			sent[tx.From]++
			if sent[tx.From]-sendCap == 1 {
				// Report the first excess send per node and slot.
				v.issue(Issue{Slot: t, Kind: KindSendCap, Tx: tx,
					Detail: fmt.Sprintf("node %d capacity %d", tx.From, sendCap)})
			}
			if !v.holds(tx.From, tx.Packet, t) {
				v.issue(Issue{Slot: t, Kind: KindNotHeld, Tx: tx})
				continue // an unavailable packet cannot propagate
			}
			v.observeTreeEdge(tx)
			l := core.Slot(1)
			if v.opt.Latency != nil {
				l = v.opt.Latency(tx.From, tx.To)
			}
			if l < 1 {
				v.issue(Issue{Slot: t, Kind: KindBadLatency, Tx: tx,
					Detail: fmt.Sprintf("Latency(%d, %d) = %d", tx.From, tx.To, l)})
				continue
			}
			if l == 1 {
				arrivals = append(arrivals, tx)
			} else {
				inflight[t+l-1] = append(inflight[t+l-1], tx)
			}
		}
		clear(received)
		for _, tx := range arrivals {
			recvCap := 1
			if v.opt.RecvCap != nil {
				recvCap = v.opt.RecvCap(tx.To)
			}
			received[tx.To]++
			if received[tx.To]-recvCap == 1 {
				v.issue(Issue{Slot: t, Kind: KindRecvCap, Tx: tx,
					Detail: fmt.Sprintf("node %d capacity %d", tx.To, recvCap)})
			}
			if tx.To == core.SourceID || tx.Packet >= v.maxPkt {
				continue
			}
			cell := &v.arrival[int(tx.To)*int(v.maxPkt)+int(tx.Packet)]
			if *cell != 0 {
				v.issue(Issue{Slot: t, Kind: KindDuplicate, Tx: tx,
					Detail: fmt.Sprintf("first arrived at slot %d", *cell-1)})
				continue
			}
			*cell = int32(t) + 1
		}
	}
}

// observeTreeEdge accumulates the multi-tree structural evidence of one
// relayed transmission and reports interior overlap as soon as a sender
// crosses residue classes.
func (v *verifier) observeTreeEdge(tx core.Transmission) {
	d := v.opt.TreeDegree
	if d <= 0 || tx.From == core.SourceID || (len(v.opt.TreeExempt) != 0 && v.opt.TreeExempt[tx.From]) {
		return
	}
	from, r := int(tx.From), int(tx.Packet)%d
	mask := v.residues[from*v.resWords : (from+1)*v.resWords]
	if bit := uint64(1) << (r % 64); mask[r/64]&bit == 0 {
		mask[r/64] |= bit
		classes := 0
		for _, w := range mask {
			classes += bits.OnesCount64(w)
		}
		if classes == 2 { // reported once, when the second class shows up
			v.issue(Issue{Slot: -1, Kind: KindInterior,
				Detail: fmt.Sprintf("node %d relays packets of trees %s; a receiver may be interior in at most one of the %d trees",
					tx.From, residueList(mask), d)})
		}
	}
	// children is the class's distinct child count once tx.To has joined it,
	// 0 when it adds none: it is there already, or the list is full — it
	// holds d+1, and reaching d+1 is what was reported.
	children := 0
	row := v.kids[from*(d+2) : (from+1)*(d+2)]
	if row[0] == 0 {
		row[0] = int32(r) + 1
	}
	if row[0] == int32(r)+1 {
		for i, kid := range row[1:] {
			if kid == 0 {
				row[1+i], children = int32(tx.To)+1, i+1
			}
			if kid == 0 || kid == int32(tx.To)+1 {
				break
			}
		}
	} else if kids := v.spill[[2]int{from, r}]; len(kids) <= d && !slices.Contains(kids, tx.To) {
		if v.spill == nil {
			v.spill = make(map[[2]int][]core.NodeID)
		}
		v.spill[[2]int{from, r}] = append(kids, tx.To)
		children = len(kids) + 1
	}
	if children == d+1 {
		v.issue(Issue{Slot: -1, Kind: KindFanout,
			Detail: fmt.Sprintf("node %d feeds %d distinct children in tree %d; a %d-ary tree allows %d",
				tx.From, children, r, d, d)})
	}
}

// residueList renders a residue mask in ascending order.
func residueList(mask []uint64) string {
	var parts []string
	for w, word := range mask {
		for ; word != 0; word &= word - 1 {
			parts = append(parts, strconv.Itoa(w*64+bits.TrailingZeros64(word)))
		}
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// noNeighbors stands for a listed node's empty list, so that a nil entry of
// verifier.lists always means "not listed".
var noNeighbors = []core.NodeID{}

// loadMesh reads Neighbors() once into an id-indexed table.
func (v *verifier) loadMesh() {
	if v.opt.MaxNeighbors <= 0 && !v.opt.CheckMesh {
		return
	}
	v.mesh = v.scheme.Neighbors()
	v.lists = make([][]core.NodeID, v.n+1)
	for id, list := range v.mesh {
		switch {
		case id < 0 || int(id) > v.n:
			v.strays = append(v.strays, id)
		case list == nil:
			v.lists[id] = noNeighbors
		default:
			v.lists[id] = list
		}
	}
	slices.Sort(v.strays)
}

// checkEdge tests one scheduled edge against the mesh: every edge the
// schedule uses must be a mesh edge at both listed ends; a schedule talking
// to a non-neighbor breaks the 2d protocol-state bound the paper argues for.
// An edge is reported once, at its first slot. Neighbor lists are at most 2d
// long, so membership is a scan.
func (v *verifier) checkEdge(t core.Slot, tx core.Transmission) {
	for _, end := range [2]core.NodeID{tx.From, tx.To} {
		list := v.lists[end]
		if list == nil {
			continue // source side: schemes do not list the source
		}
		other := tx.From + tx.To - end
		if slices.Contains(list, other) {
			continue
		}
		// One finding past the cap is enough to mark the report truncated.
		if len(v.offMesh) > v.opt.MaxIssues {
			return
		}
		for _, is := range v.offMesh {
			if is.Tx.From == tx.From && is.Tx.To == tx.To {
				return
			}
		}
		v.offMesh = append(v.offMesh, Issue{Slot: t, Kind: KindMesh, Tx: tx,
			Detail: fmt.Sprintf("node %d does not list %d in Neighbors()", end, other)})
		return
	}
}

// auditDegrees checks every listed node's degree, in ascending id order.
func (v *verifier) auditDegrees() {
	audit := func(id core.NodeID, degree int) {
		v.report.MaxNeighbors = max(v.report.MaxNeighbors, degree)
		if v.opt.MaxNeighbors > 0 && degree > v.opt.MaxNeighbors {
			v.issue(Issue{Slot: -1, Kind: KindDegree,
				Detail: fmt.Sprintf("node %d has %d protocol neighbors, bound is %d",
					id, degree, v.opt.MaxNeighbors)})
		}
	}
	below, _ := slices.BinarySearch(v.strays, 0) // strays are sorted and hold no id in 0..n
	for _, id := range v.strays[:below] {
		audit(id, len(v.mesh[id]))
	}
	for id, list := range v.lists {
		if list != nil {
			audit(core.NodeID(id), len(list))
		}
	}
	for _, id := range v.strays[below:] {
		audit(id, len(v.mesh[id]))
	}
}

// crossCheck derives worst-case delay and buffer from the relaxed arrival
// times and compares them against the closed-form bounds.
func (v *verifier) crossCheck() {
	counts := make([]int, v.opt.Horizon) // peakBuffer's histogram, reused
	for id := core.NodeID(1); int(id) <= v.n; id++ {
		lo := int(id) * int(v.maxPkt)
		row := v.arrival[lo : lo+int(v.opt.Packets)]
		var worst core.Slot = -1 << 30
		complete := true
		for j, a := range row {
			if a == 0 {
				complete = false
				if !v.opt.AllowIncomplete {
					v.issue(Issue{Slot: -1, Kind: KindIncomplete,
						Detail: fmt.Sprintf("node %d never receives packet %d within %d slots", id, j, v.opt.Horizon)})
				}
				continue
			}
			if lag := core.Slot(a-1) - core.Slot(j); lag > worst {
				worst = lag
			}
		}
		if !complete {
			continue
		}
		if worst > v.report.WorstDelay {
			v.report.WorstDelay = worst
		}
		if b := peakBuffer(row, worst, counts); b > v.report.WorstBuffer {
			v.report.WorstBuffer = b
		}
	}
	if v.opt.DelayBound > 0 && v.report.WorstDelay > v.opt.DelayBound {
		v.issue(Issue{Slot: -1, Kind: KindDelayBound,
			Detail: fmt.Sprintf("schedule worst-case playback delay %d exceeds closed-form bound %d",
				v.report.WorstDelay, v.opt.DelayBound)})
	}
	if v.opt.BufferBound > 0 && v.report.WorstBuffer > v.opt.BufferBound {
		v.issue(Issue{Slot: -1, Kind: KindBufferBound,
			Detail: fmt.Sprintf("peak buffer occupancy %d packets exceeds bound %d",
				v.report.WorstBuffer, v.opt.BufferBound)})
	}
}

// peakBuffer mirrors the engine's buffer accounting: packet j occupies the
// buffer from the end of its arrival slot through the end of slot start+j.
// arrival is one complete row of the matrix (slot plus one). counts is the
// caller's histogram of arrivals per slot, all zero on entry and again on
// return: every entry touched is cleared on the way back.
func peakBuffer(arrival []int32, start core.Slot, counts []int) int {
	var end int32 // latest arrival slot, plus one
	for _, a := range arrival {
		counts[a-1]++
		end = max(end, a)
	}
	peak, have := 0, 0
	for t := core.Slot(0); t < core.Slot(end); t++ {
		have += counts[t]
		counts[t] = 0
		played := min(max(int(t-start), 0), len(arrival))
		peak = max(peak, have-played)
	}
	return peak
}
