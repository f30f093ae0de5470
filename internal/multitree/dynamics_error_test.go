package multitree

import (
	"strings"
	"testing"
)

// TestAddNoDummyIsError: a corrupted family where every member claims to be
// real (while the padding says a dummy must exist) makes Add fail with a
// descriptive error instead of panicking.
func TestAddNoDummyIsError(t *testing.T) {
	dy, err := NewDynamic(5, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	// np=6, n=5: one dummy slot. Marking it real without growing n breaks
	// the invariant pickDummy relies on.
	for mem := range dy.m.dummy {
		dy.m.dummy[mem] = false
	}
	if _, err := dy.Add("intruder"); err == nil {
		t.Fatal("Add on a dummyless family succeeded")
	} else if !strings.Contains(err.Error(), "no dummy available") {
		t.Errorf("unexpected error: %v", err)
	}
	// The failed operation must not have registered the member.
	if _, dup := dy.byName["intruder"]; dup {
		t.Error("failed Add left the member registered")
	}
}

// TestDeleteNoRealTailIsError: a corrupted family whose tree-0 tail is all
// dummies makes Delete of an interior member fail with a descriptive error
// instead of panicking.
func TestDeleteNoRealTailIsError(t *testing.T) {
	dy, err := NewDynamic(5, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	// Demote every tail member to dummy behind the bookkeeping's back, so
	// the find-replacement step has no candidate.
	for _, mem := range dy.m.Trees[0][dy.m.NP-dy.m.D:] {
		dy.m.dummy[mem] = true
	}
	// Delete a member that is interior somewhere (the tree-0 root is).
	victim := dy.names[dy.m.Trees[0][0]]
	if victim == "" {
		t.Fatal("tree-0 root has no name")
	}
	if _, err := dy.Delete(victim); err == nil {
		t.Fatal("Delete without a real tail member succeeded")
	} else if !strings.Contains(err.Error(), "no real all-leaf member") {
		t.Errorf("unexpected error: %v", err)
	}
	// The failed operation must not have retired the member.
	if _, ok := dy.byName[victim]; !ok {
		t.Error("failed Delete unregistered the member")
	}
}
