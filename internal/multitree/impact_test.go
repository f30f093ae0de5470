package multitree

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"streamcast/internal/core"
)

// referenceImpact is ChurnImpact read off two schedules: NewScheme over
// clones of the family taken before and after the op, each surviving
// member's first receive slots and analytic start delay looked up by its
// stable id in both. A member that was no real member before is skipped.
func referenceImpact(before, after *LiveScheme, mode core.StreamMode) []MemberImpact {
	bs, as := NewScheme(before.m, mode), NewScheme(after.m, mode)
	members := after.Members()
	slices.SortFunc(members, func(a, b core.MemberInfo) int { return int(a.Node) - int(b.Node) })
	var out []MemberImpact
	for _, mem := range members {
		id := mem.Node
		if int(id) >= len(before.m.dummy) || before.m.IsDummy(id) {
			continue
		}
		im := MemberImpact{Node: id}
		changed := false
		for k := 0; k < after.m.D; k++ {
			diff := int(bs.FirstRecvSlot(k, id) - as.FirstRecvSlot(k, id))
			switch {
			case diff > 0:
				im.MissedPackets += diff / after.m.D
			case diff < 0:
				im.StallRounds -= diff / after.m.D
			default:
				continue
			}
			changed = true
		}
		if changed {
			im.StartDelayChange = as.AnalyticStartDelay(id) - bs.AnalyticStartDelay(id)
			out = append(out, im)
		}
	}
	return out
}

// TestChurnImpactMatchesSchedules holds ChurnImpact, which reads only the
// family's positions and the op's swap log, to referenceImpact after every
// op of a seeded 320-op sequence that swings the membership between 2 and
// 12d+3 members, so the trees both grow and shrink, for d = 2..4, eager and
// lazy, in every stream mode. The sequence must perturb members both ways
// (missed packets and stall rounds), or the comparison would be vacuous.
func TestChurnImpactMatchesSchedules(t *testing.T) {
	for d := 2; d <= 4; d++ {
		for _, lazy := range []bool{false, true} {
			// One scheme per mode, each fed the same ops: the families
			// stay identical, the schedules differ.
			modes := []core.StreamMode{core.PreRecorded, core.Live, core.LivePreBuffered}
			lss := make([]*LiveScheme, len(modes))
			for j, mode := range modes {
				var err error
				if lss[j], err = NewLiveScheme(3*d, d, lazy, mode); err != nil { // full: the first join grows a level
					t.Fatal(err)
				}
			}
			ls := lss[0]
			rng := rand.New(rand.NewSource(int64(d)))
			up := true
			var grew, shrunk, missed, stalls int
			for i := 0; i < 320; i++ {
				if n := ls.m.N; n >= 12*d+3 {
					up = false
				} else if n <= 2 {
					up = true
				}
				before, np := ls.clone(), ls.m.NP
				op := core.TopologyOp{Name: fmt.Sprintf("j%d", i)}
				if join := (rng.Intn(5) != 0) == up; !join && ls.m.N > 1 {
					names := memberNames(ls)
					op = core.TopologyOp{Leave: true, Name: names[rng.Intn(len(names))]}
				}
				for j, mode := range modes {
					if _, err := lss[j].Apply(core.Slot(i), op); err != nil {
						t.Fatal(err)
					}
					got, want := ChurnImpact(lss[j]), referenceImpact(before, lss[j].clone(), mode)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("d=%d lazy=%v op %d %s: ChurnImpact %+v, schedules %+v", d, lazy, i, mode, got, want)
					}
					for _, im := range got {
						missed += im.MissedPackets
						stalls += im.StallRounds
					}
				}
				grew += b2i(ls.m.NP > np)
				shrunk += b2i(ls.m.NP < np)
			}
			if grew < 3 || shrunk < 3 || missed == 0 || stalls == 0 {
				t.Fatalf("d=%d lazy=%v: %d grows, %d shrinks, %d missed packets, %d stall rounds: the sequence is too tame",
					d, lazy, grew, shrunk, missed, stalls)
			}
		}
	}
}

// TestChurnImpactSkipsJoiner: the member an op revives had no schedule
// before it, so it is never reported, even when the op's swaps move it. A
// swap appended to a join's log moves the joiner to a same-residue position
// that first receives in another slot, and the survivor there to its.
func TestChurnImpactSkipsJoiner(t *testing.T) {
	d := 3
	ls, err := NewLiveScheme(10*d-1, d, false, core.PreRecorded) // one dummy: the join revives it
	if err != nil {
		t.Fatal(err)
	}
	before := ls.clone()
	if _, err := addMember(ls, "x"); err != nil {
		t.Fatal(err)
	}
	joiner := ls.flipped
	p := ls.m.pos[0][joiner]
	for q := p - d; q >= 1; q -= d {
		if firstRecv(core.PreRecorded, d, 0, q) != firstRecv(core.PreRecorded, d, 0, p) {
			ls.swapInTree(0, p, q)
			break
		}
	}
	got, want := ChurnImpact(ls), referenceImpact(before, ls.clone(), core.PreRecorded)
	if len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("ChurnImpact %+v, schedules %+v (joiner %d)", got, want, joiner)
	}
}

// TestChurnImpactBounds verifies the appendix claim: a single operation
// perturbs at most ~d² members, and unaffected members keep their exact
// delivery schedule (zero missed packets, zero stalls).
func TestChurnImpactBounds(t *testing.T) {
	d := 3
	ls, err := NewLiveScheme(30, d, false, core.PreRecorded)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	for step := 0; step < 120; step++ {
		height := ls.m.Height()
		if rng.Intn(2) == 0 || ls.m.N <= 2 {
			if _, err := addMember(ls, fmt.Sprintf("i-%d", step)); err != nil {
				t.Fatal(err)
			}
		} else {
			names := memberNames(ls)
			if _, err := removeMember(ls, names[rng.Intn(len(names))]); err != nil {
				t.Fatal(err)
			}
		}
		impacts := ChurnImpact(ls)
		if len(impacts) > d*d+2*d {
			t.Fatalf("step %d: %d members impacted, above the d²+2d envelope", step, len(impacts))
		}
		for _, im := range impacts {
			if im.MissedPackets < 0 || im.StallRounds < 0 {
				t.Fatalf("step %d: negative impact %+v", step, im)
			}
			if im.MissedPackets > d*height {
				t.Fatalf("step %d: member %d missed %d packets, above d*h", step, im.Node, im.MissedPackets)
			}
		}
	}
}

// TestChurnImpactNoOpForStableMembers: deleting an all-leaf node from a
// configuration with spare dummies perturbs nobody else's schedule.
func TestChurnImpactNoOpForStableMembers(t *testing.T) {
	d := 3
	// N=32 pads to NP=33 with I=10: the tail holds two real all-leaf
	// members plus one dummy, so deleting one real tail member requires
	// no swaps and no restore.
	ls, err := NewLiveScheme(32, d, false, core.PreRecorded)
	if err != nil {
		t.Fatal(err)
	}
	// Find a real all-leaf member: the tail member with the highest
	// tree-0 position is one.
	m := ls.m
	var victim string
	for p := m.NP; p > m.NP-m.D; p-- {
		if id := m.Trees[0][p-1]; !m.IsDummy(id) {
			victim = ls.names[id]
			break
		}
	}
	st, err := removeMember(ls, victim)
	if err != nil {
		t.Fatal(err)
	}
	if st.Swaps != 0 {
		t.Fatalf("all-leaf deletion used %d swaps", st.Swaps)
	}
	if impacts := ChurnImpact(ls); len(impacts) != 0 {
		t.Errorf("swap-free deletion impacted %d members: %+v", len(impacts), impacts)
	}
}

// TestChurnImpactDetectsPromotion: deleting an interior node moves its
// replacement deeper/shallower and must show up in the impact report.
func TestChurnImpactDetectsPromotion(t *testing.T) {
	d := 2
	ls, err := NewLiveScheme(12, d, false, core.PreRecorded)
	if err != nil {
		t.Fatal(err)
	}
	// node-1 is interior in tree 0 of the initial greedy family.
	if _, err := removeMember(ls, "node-1"); err != nil {
		t.Fatal(err)
	}
	impacts := ChurnImpact(ls)
	if len(impacts) == 0 {
		t.Fatal("interior deletion reported no impact")
	}
	moved := false
	for _, im := range impacts {
		if im.MissedPackets > 0 || im.StallRounds > 0 || im.StartDelayChange != 0 {
			moved = true
		}
	}
	if !moved {
		t.Errorf("impacts carry no signal: %+v", impacts)
	}
}
