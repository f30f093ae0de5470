package multitree

import (
	"strings"
	"testing"

	"streamcast/internal/core"
)

// TestAddNoDummyIsError: a corrupted family where every member claims to be
// real (while the padding says a dummy must exist) makes a join fail with a
// descriptive error instead of panicking.
func TestAddNoDummyIsError(t *testing.T) {
	ls, err := NewLiveScheme(5, 2, false, core.PreRecorded)
	if err != nil {
		t.Fatal(err)
	}
	// np=6, n=5: one dummy slot. Marking it real without growing n breaks
	// the invariant pickDummy relies on.
	for mem := range ls.m.dummy {
		ls.m.dummy[mem] = false
	}
	if _, err := addMember(ls, "intruder"); err == nil {
		t.Fatal("join on a dummyless family succeeded")
	} else if !strings.Contains(err.Error(), "no dummy available") {
		t.Errorf("unexpected error: %v", err)
	}
	// The failed operation must not have registered the member.
	if _, dup := ls.byName["intruder"]; dup {
		t.Error("failed join left the member registered")
	}
}

// TestDeleteNoRealTailIsError: a corrupted family whose tree-0 tail is all
// dummies makes the leave of an interior member fail with a descriptive error
// instead of panicking.
func TestDeleteNoRealTailIsError(t *testing.T) {
	ls, err := NewLiveScheme(5, 2, false, core.PreRecorded)
	if err != nil {
		t.Fatal(err)
	}
	// Demote every tail member to dummy behind the bookkeeping's back, so
	// the find-replacement step has no candidate.
	for _, mem := range ls.m.Trees[0][ls.m.NP-ls.m.D:] {
		ls.m.dummy[mem] = true
	}
	// Remove a member that is interior somewhere (the tree-0 root is).
	victim := ls.names[ls.m.Trees[0][0]]
	if victim == "" {
		t.Fatal("tree-0 root has no name")
	}
	if _, err := removeMember(ls, victim); err == nil {
		t.Fatal("leave without a real tail member succeeded")
	} else if !strings.Contains(err.Error(), "no real all-leaf member") {
		t.Errorf("unexpected error: %v", err)
	}
	// The failed operation must not have retired the member.
	if _, ok := ls.byName[victim]; !ok {
		t.Error("failed leave unregistered the member")
	}
}
