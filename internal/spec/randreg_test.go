package spec

import (
	"reflect"
	"strings"
	"testing"

	"streamcast/internal/randreg"
)

// randRegDraw resolves sc and returns the digraph its build would run on.
func randRegDraw(t *testing.T, sc *Scenario) *randreg.Digraph {
	t.Helper()
	v, err := Lookup("randreg").resolve(sc.Params)
	if err != nil {
		t.Fatal(err)
	}
	g, err := randRegGraph(buildInput{Values: v, Graph: sc.graph})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestGraphModeIndependent: the three modes' scenarios for one seed draw
// deeply equal digraphs — the draw never reads the mode (the protocol rng
// stream is split from construction) — which is what lets one draw serve
// all three.
func TestGraphModeIndependent(t *testing.T) {
	latin := randRegDraw(t, RandRegScenario(20, 3, "latin", 23))
	for _, mode := range []string{"pull", "push"} {
		if g := randRegDraw(t, RandRegScenario(20, 3, mode, 23)); !reflect.DeepEqual(g, latin) {
			t.Fatalf("%s: digraph differs from latin's for the same seed", mode)
		}
	}
}

// TestSharedGraphRunsMatchText: in every mode, a run from a scenario
// carrying a prebuilt digraph gives a Result deeply equal to the run of the
// same scenario's text, which draws its own; and the shared graph comes out
// of three runs unchanged.
func TestSharedGraphRunsMatchText(t *testing.T) {
	const n, degree, seed = 300, 3, 41
	g, err := RandRegGraph(n, degree, seed)
	if err != nil {
		t.Fatal(err)
	}
	before := randRegDraw(t, RandRegScenario(n, degree, "latin", seed))
	for _, mode := range []string{"latin", "pull", "push"} {
		shared := RandRegScenarioOn(g, mode, seed)
		text := RandRegScenario(n, degree, mode, seed)
		if shared.Format() != text.Format() {
			t.Fatalf("%s: scenario text %q, want %q", mode, shared.Format(), text.Format())
		}
		var res [2]any
		for i, sc := range []*Scenario{shared, text} {
			run, err := Build(sc)
			if err != nil {
				t.Fatalf("%s: %v", mode, err)
			}
			if res[i], err = run.Execute(nil); err != nil {
				t.Fatalf("%s: %v", mode, err)
			}
		}
		if !reflect.DeepEqual(res[0], res[1]) {
			t.Fatalf("%s: the shared-graph run differs from the text run", mode)
		}
	}
	if !reflect.DeepEqual(g, before) {
		t.Fatal("a run wrote to the shared digraph")
	}
}

// TestSharedGraphMismatch: a carried digraph that does not fit the
// scenario's n or degree is a build error, never a panic or a run over the
// wrong graph; and n below the degree keeps its own error.
func TestSharedGraphMismatch(t *testing.T) {
	g, err := RandRegGraph(30, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ param, value string }{
		{"n", "31"}, {"n", "29"}, {"degree", "4"}, {"degree", "2"},
	} {
		sc := RandRegScenarioOn(g, "pull", 5)
		sc.setParam(c.param, c.value)
		_, err := Build(sc)
		if err == nil || !strings.Contains(err.Error(), "the scenario's digraph has 31 nodes of degree 3") {
			t.Errorf("%s=%s: Build error %v, want the digraph mismatch", c.param, c.value, err)
		}
	}
	_, err = Build(RandRegScenario(4, 5, "latin", 1))
	if want := "randreg: n=4 receivers cannot host a simple 5-regular digraph with the source (need n >= degree)"; err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("n < degree: Build error %v, want %q", err, want)
	}
}
