package check_test

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"streamcast/internal/check"
	"streamcast/internal/core"
	"streamcast/internal/hypercube"
)

// walked is a scheme's own walk, less every neighbor drop names. Its
// Neighbors() fails the test, so a verification that builds the map cannot
// pass.
type walked struct {
	core.Scheme
	t    *testing.T
	drop func(id, other core.NodeID) bool
}

func (w walked) Neighbors() map[core.NodeID][]core.NodeID {
	w.t.Fatal("Neighbors() called on a scheme that declares its walk")
	return nil
}

func (w walked) EachNeighbors(yield func(id core.NodeID, list []core.NodeID)) {
	var kept []core.NodeID
	w.Scheme.EachNeighbors(func(id core.NodeID, list []core.NodeID) {
		kept = kept[:0]
		for _, other := range list {
			if w.drop == nil || !w.drop(id, other) {
				kept = append(kept, other)
			}
		}
		yield(id, kept)
	})
}

// TestStaticReadsTheWalk: both paper constructions pass the check through
// their walk alone, with the degree core.MaxNeighbors gives, and Static never
// asks for the Neighbors() map.
func TestStaticReadsTheWalk(t *testing.T) {
	hc, err := hypercube.New(1023, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, mt := mustMultiTree(t, 1000, 3)
	for _, tc := range []struct {
		name   string
		scheme core.Scheme
		opt    check.Options
	}{
		{"hypercube N=1023", hc, check.HypercubeOptions(hc, 8)},
		{"multitree N=1000 d=3", mt, check.MultiTreeOptions(mt, 9)},
	} {
		rep, err := check.Static(walked{Scheme: tc.scheme, t: t}, tc.opt)
		if err != nil || !rep.OK() {
			t.Fatalf("%s: %v %v", tc.name, err, rep)
		}
		if want := core.MaxNeighbors(tc.scheme); rep.MaxNeighbors != want {
			t.Errorf("%s: report reads max neighbors %d, the scheme %d", tc.name, rep.MaxNeighbors, want)
		}
	}
}

// TestWalkOmissionMatchesMap: a cube whose walk omits one partner of a vertex
// files the same report — the KindMesh issue's slot, transmission and detail
// included — as the same omission made in the Neighbors() map.
func TestWalkOmissionMatchesMap(t *testing.T) {
	s, err := hypercube.New(63, 1)
	if err != nil {
		t.Fatal(err)
	}
	const id, partner = 5, 5 ^ 2
	drop := func(at, other core.NodeID) bool { return at == id && other == partner }
	opt := check.HypercubeOptions(s, 8)
	viaWalk, err := check.Static(walked{Scheme: s, t: t, drop: drop}, opt)
	if err != nil {
		t.Fatal(err)
	}
	viaMap, err := check.Static(&corrupt{Scheme: s, nbMod: func(nb map[core.NodeID][]core.NodeID) map[core.NodeID][]core.NodeID {
		nb[id] = slices.DeleteFunc(slices.Clone(nb[id]), func(other core.NodeID) bool { return drop(id, other) })
		return nb
	}}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !viaMap.HasKind(check.KindMesh) {
		t.Fatalf("the map omission files no %q issue: %v", check.KindMesh, viaMap.Issues)
	}
	if !reflect.DeepEqual(viaWalk, viaMap) {
		t.Errorf("walk omission reports %+v\nmap omission reports %+v", *viaWalk, *viaMap)
	}
}

// TestStrayIDsAreRangeIssues: a walk that yields ids outside 1..n files one
// range issue for each, in walk order, and none of them counts as a degree;
// an id outside the range inside an in-range list still counts toward that
// node's degree.
func TestStrayIDsAreRangeIssues(t *testing.T) {
	_, s := mustMultiTree(t, 13, 2) // the bound is 2d = 4
	five := []core.NodeID{1, 2, 3, 4, 5}
	cs := &corrupt{Scheme: s, nbMod: func(nb map[core.NodeID][]core.NodeID) map[core.NodeID][]core.NodeID {
		nb[40] = append(slices.Clone(five), 6)
		nb[-2] = five
		nb[3] = append(slices.Clone(nb[3]), 40, 41, 42, 43)
		nb[20] = five
		return nb
	}}
	rep, err := check.Static(cs, check.MultiTreeOptions(s, 6))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, is := range rep.Issues {
		got = append(got, is.String())
	}
	deg3 := len(s.Neighbors()[3]) + 4
	want := []string{
		"node id out of range: the mesh lists node -2; receivers are 1..13",
		"node id out of range: the mesh lists node 20; receivers are 1..13",
		"node id out of range: the mesh lists node 40; receivers are 1..13",
		fmt.Sprintf("neighbor bound exceeded: node 3 has %d protocol neighbors, bound is 4", deg3),
	}
	if !slices.Equal(got, want) || rep.MaxNeighbors != deg3 {
		t.Errorf("issues %q, max neighbors %d; want %q, %d", got, rep.MaxNeighbors, want, deg3)
	}
}
