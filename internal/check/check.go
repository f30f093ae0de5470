package check

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"strconv"
	"strings"

	"streamcast/internal/core"
	"streamcast/internal/obs"
	"streamcast/internal/slotsim"
)

// Issue kinds. The first block is the slot model: these are the kind strings
// of the slotsim Violation that Static's engine run stops at, at most one per
// report. The second block is what only the verifier audits.
const (
	KindRange     = "node id out of range"
	KindSelf      = "self transmission"
	KindSendCap   = "send capacity exceeded"
	KindNotHeld   = "sender does not hold packet"
	KindRecvCap   = "receive capacity exceeded"
	KindDuplicate = "duplicate packet"

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
	// Kind classifies the defect; slot-model kinds are the slotsim
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
	// Run is the engine configuration the schedule is verified under:
	// horizon (Slots), measurement window (Packets), stream mode,
	// capacities and in-flight hook. Run.AllowIncomplete switches the
	// completeness audit off (best-effort schemes). Static runs a copy of
	// it with its own observer attached and the engine's AllowIncomplete
	// forced, so every one of the Run.Slots slots is executed and audited
	// and a short window is a finding, not an engine error. The copy drops
	// what a verification does not run under: SkipUnavailable (a send of an
	// unheld packet is always a finding), Arrivals (the caller's record is
	// neither filled nor resized) and Churn (a fixed schedule is audited).
	// A link the hook makes take fewer than 1 slot is a configuration
	// error: Static returns the engine's error, as it does for every option
	// the engine refuses.
	Run slotsim.Options
	// TreeDegree, when > 0, enables the multi-tree structural audit: packet
	// j belongs to tree j mod TreeDegree, every non-source sender must
	// relay a single residue class (interior-disjointness) and fan out to
	// at most TreeDegree children within it.
	TreeDegree int
	// TreeExempt marks nodes excluded from the multi-tree audit:
	// infrastructure relays (cluster super nodes, local roots) that
	// legitimately forward every residue class.
	TreeExempt map[core.NodeID]bool
	// MaxNeighbors, when > 0, bounds every listed node's degree.
	MaxNeighbors int
	// DelayBound, when > 0, is the closed-form worst-case playback delay
	// the measured schedule must not exceed.
	DelayBound core.Slot
	// BufferBound, when > 0, bounds the per-node peak buffer occupancy.
	BufferBound int
	// MaxIssues caps the number of recorded issues (0: 32). Recording stops
	// at the cap, but every audit still runs, so summary stats stay valid.
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
	// measurement window (receivers with complete windows only); 0 when the
	// run stopped at a slot-model violation.
	WorstDelay core.Slot
	// WorstBuffer is the peak buffer occupancy over the same receivers; 0
	// when the run stopped at a slot-model violation.
	WorstBuffer int
	// MaxNeighbors is the largest degree listed.
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

// verifier is the working state of one Static run: the structural audits
// only the verifier does, fed by the engine as the run's obs.Observer. The
// tables are sized at slot 0's view, after the engine has accepted the run,
// so an oversized verification is refused before any of them is allocated
// or the mesh is walked.
type verifier struct {
	scheme core.Scheme
	opt    Options
	n      int
	report *Report

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

	// Mesh audit, on every run. rows[id] is the [lo, hi) span of flat that
	// holds the node's list, an id outside 0..n as -1; flat[0] is padding, so
	// a zero span means the node is not listed (the source always). offMesh
	// buffers the scheduled edges found missing during the run: they are
	// filed after the slot-model finding and the degree audit.
	rows    [][2]int32
	flat    []int32
	offMesh []Issue
}

// Static verifies the scheme's schedule and mesh under opt.Run. It runs the
// schedule once on the slot engine, which enforces the slot model, with an
// observer that gathers the multi-tree evidence and tests every executed edge
// against the mesh; the degree audit and the delay, buffer and completeness
// cross-checks then read the mesh table and the engine's Result. It returns
// an error only for unusable configuration — the engine's own refusals;
// scheme defects land in the report.
func Static(s core.Scheme, opt Options) (*Report, error) {
	if opt.MaxIssues == 0 {
		opt.MaxIssues = 32
	}
	v := &verifier{scheme: s, opt: opt, n: s.NumReceivers(), report: &Report{Scheme: s.Name()}}
	run := opt.Run
	run.AllowIncomplete = true
	run.SkipUnavailable = false
	run.Arrivals = nil
	run.Churn = nil
	run.Observer = v
	// A Runner of its own, not the pool's: its scratch is garbage once the
	// verdict is in. A pooled one stays reachable, and the run after the
	// check is not always handed it (sync.Pool keeps a Runner per P), so a
	// checked N = 32 767 cube peaked ≈ 3.5 MB higher with the pool.
	res, err := slotsim.NewRunner().Run(s, run)
	var viol *slotsim.Violation
	switch {
	case errors.As(err, &viol):
		v.issue(Issue{Slot: viol.Slot, Kind: viol.Kind, Tx: viol.Tx})
		if viol.Kind != KindRange && viol.Kind != KindSelf {
			// The flagged transmission is audited like an executed one,
			// except that a packet its sender does not hold joins no tree.
			v.audit(viol.Slot, viol.Tx, viol.Kind != KindNotHeld)
		}
	case err != nil:
		return nil, err
	}
	v.auditDegrees()
	for _, is := range v.offMesh {
		v.issue(is)
	}
	if res != nil {
		v.crossCheck(res)
	}
	return v.report, nil
}

// Slot sizes the audit tables and reads the mesh when the run opens, then
// audits every transmission the slot executed; the engine's Result and its
// returned Violation carry the rest.
func (v *verifier) Slot(sv *obs.SlotView) {
	if sv.T == 0 {
		if d := v.opt.TreeDegree; d > 0 {
			v.resWords = (d + 63) / 64
			v.residues = make([]uint64, (v.n+1)*v.resWords)
			v.kids = make([]int32, (v.n+1)*(d+2))
		}
		v.loadMesh()
	}
	lost := sv.Lost
	for i, tx := range sv.Sent {
		if len(lost) > 0 && lost[0] == i {
			lost = lost[1:]
			continue
		}
		v.audit(sv.T, tx, true)
	}
}

// audit tests one transmission's edge against the mesh and, when it carries
// a packet its sender holds, adds it to the multi-tree evidence.
func (v *verifier) audit(t core.Slot, tx core.Transmission, relayed bool) {
	v.checkEdge(t, tx)
	if relayed {
		v.observeTreeEdge(tx)
	}
}

// issue records a finding, honoring the cap.
func (v *verifier) issue(i Issue) {
	if len(v.report.Issues) >= v.opt.MaxIssues {
		v.report.Truncated = true
		return
	}
	v.report.Issues = append(v.report.Issues, i)
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

// loadMesh reads the mesh's walk into the id-indexed table once, filing each
// walked id outside 1..n as a range finding; the neighbor bound sizes flat.
func (v *verifier) loadMesh() {
	v.rows = make([][2]int32, v.n+1)
	v.flat = make([]int32, 1, 1+v.n*max(v.opt.MaxNeighbors, 1))
	v.scheme.EachNeighbors(func(id core.NodeID, list []core.NodeID) {
		if id < 1 || int(id) > v.n {
			v.issue(Issue{Slot: -1, Kind: KindRange,
				Detail: fmt.Sprintf("the mesh lists node %d; receivers are 1..%d", id, v.n)})
			return
		}
		lo := len(v.flat)
		for _, other := range list {
			if other < 0 || int(other) > v.n {
				other = -1
			}
			v.flat = append(v.flat, int32(other))
		}
		v.rows[id] = [2]int32{int32(lo), int32(len(v.flat))}
	})
}

// checkEdge tests one scheduled edge against the mesh: every edge the
// schedule uses must be a mesh edge at both listed ends; a schedule talking
// to a non-neighbor breaks the 2d protocol-state bound the paper argues for.
// An edge is reported once, at its first slot. Neighbor lists are at most 2d
// long, so membership is a scan.
func (v *verifier) checkEdge(t core.Slot, tx core.Transmission) {
	for _, end := range [2]core.NodeID{tx.From, tx.To} {
		span := v.rows[end]
		if span[0] == 0 {
			continue // source side: schemes do not list the source
		}
		other := tx.From + tx.To - end
		if slices.Contains(v.flat[span[0]:span[1]], int32(other)) {
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
			Detail: fmt.Sprintf("node %d does not list %d in its EachNeighbors walk", end, other)})
		return
	}
}

// auditDegrees checks every listed node's degree, in ascending id order.
func (v *verifier) auditDegrees() {
	for id, span := range v.rows {
		degree := int(span[1] - span[0])
		v.report.MaxNeighbors = max(v.report.MaxNeighbors, degree)
		if v.opt.MaxNeighbors > 0 && degree > v.opt.MaxNeighbors {
			v.issue(Issue{Slot: -1, Kind: KindDegree,
				Detail: fmt.Sprintf("node %d has %d protocol neighbors, bound is %d",
					id, degree, v.opt.MaxNeighbors)})
		}
	}
}

// crossCheck reads worst-case delay and buffer off the engine's Result —
// over the receivers that got the whole window — files every receiver that
// did not, and compares the measurements against the closed-form bounds.
func (v *verifier) crossCheck(res *slotsim.Result) {
	for id := 1; id <= v.n; id++ {
		if m := res.Missing[id]; m > 0 {
			if !v.opt.Run.AllowIncomplete {
				v.issue(Issue{Slot: -1, Kind: KindIncomplete,
					Detail: fmt.Sprintf("node %d misses %d of %d window packets within %d slots", id, m, v.opt.Run.Packets, v.opt.Run.Slots)})
			}
			continue
		}
		v.report.WorstDelay = max(v.report.WorstDelay, res.StartDelay[id])
		v.report.WorstBuffer = max(v.report.WorstBuffer, res.MaxBuffer[id])
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
