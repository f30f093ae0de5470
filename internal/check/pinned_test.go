package check_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"streamcast/internal/check"
	"streamcast/internal/cluster"
	"streamcast/internal/core"
	"streamcast/internal/hypercube"
)

var update = flag.Bool("update", false, "rewrite testdata/pinned_reports.txt from the current verifier")

// pinnedCase is one seeded corruption whose whole report is pinned.
type pinnedCase struct {
	name string
	run  func(t *testing.T) (*check.Report, error)
}

// appendAt returns a txMod that appends extra transmissions to one slot.
func appendAt(at core.Slot, extra ...core.Transmission) func(core.Slot, []core.Transmission) []core.Transmission {
	return func(t core.Slot, txs []core.Transmission) []core.Transmission {
		if t != at {
			return txs
		}
		return append(txs, extra...)
	}
}

// pinnedCases are the seeded corruptions of check_test.go and
// compiled_test.go, plus two that cover how findings of different passes
// interleave: the MaxIssues cut, and a schedule that breaks both a hold rule
// and the mesh (interpreter findings are filed before mesh findings).
func pinnedCases() []pinnedCase {
	return []pinnedCase{
		{"shared interior", func(t *testing.T) (*check.Report, error) {
			m, s := mustMultiTree(t, 13, 2)
			bad := findInterior(t, m)
			other := core.NodeID(1)
			if other == bad {
				other = 2
			}
			opt := check.MultiTreeOptions(s, 6)
			cs := &corrupt{Scheme: s, txMod: appendAt(opt.DelayBound+6,
				core.Transmission{From: bad, To: other, Packet: 1})}
			return check.Static(cs, opt)
		}},
		{"fan-out overflow in two residue classes", func(t *testing.T) (*check.Report, error) {
			// The interior node feeds three further children in its own
			// tree and three in the other one: both child lists overflow.
			m, s := mustMultiTree(t, 13, 2)
			bad := findInterior(t, m)
			opt := check.MultiTreeOptions(s, 6)
			var extra []core.Transmission
			for _, p := range []core.Packet{0, 1} {
				for to := core.NodeID(10); to <= 12; to++ {
					extra = append(extra, core.Transmission{From: bad, To: to, Packet: p})
				}
			}
			return check.Static(&corrupt{Scheme: s, txMod: appendAt(opt.DelayBound+6, extra...)}, opt)
		}},
		{"double send", func(t *testing.T) (*check.Report, error) {
			_, s := mustMultiTree(t, 20, 3)
			opt := check.MultiTreeOptions(s, 9)
			at := opt.DelayBound + 3
			cs := &corrupt{Scheme: s, txMod: func(t core.Slot, txs []core.Transmission) []core.Transmission {
				if t != at {
					return txs
				}
				for _, tx := range txs {
					if tx.From != core.SourceID {
						return append(txs, tx)
					}
				}
				return txs
			}}
			return check.Static(cs, opt)
		}},
		{"degree overflow", func(t *testing.T) (*check.Report, error) {
			_, s := mustMultiTree(t, 13, 2)
			cs := &corrupt{Scheme: s, nbMod: func(nb map[core.NodeID][]core.NodeID) map[core.NodeID][]core.NodeID {
				for id := core.NodeID(20); id <= 25; id++ {
					nb[1] = append(nb[1], id) // ids outside the mesh: no duplicate can hide one
				}
				return nb
			}}
			return check.Static(cs, check.MultiTreeOptions(s, 6))
		}},
		{"degree overflow at listed ids outside the node range", func(t *testing.T) (*check.Report, error) {
			// Degrees are audited in ascending id order, whatever is listed.
			_, s := mustMultiTree(t, 13, 2)
			cs := &corrupt{Scheme: s, nbMod: func(nb map[core.NodeID][]core.NodeID) map[core.NodeID][]core.NodeID {
				nb[40] = []core.NodeID{1, 2, 3, 4, 5, 6}
				nb[-2] = []core.NodeID{1, 2, 3, 4, 5}
				nb[-7] = nil
				nb[6] = append(nb[6], 30, 31, 32, 33, 34, 35, 36)
				return nb
			}}
			return check.Static(cs, check.MultiTreeOptions(s, 6))
		}},
		{"missing mesh edge", func(t *testing.T) (*check.Report, error) {
			_, s := mustMultiTree(t, 13, 2)
			cs := &corrupt{Scheme: s, nbMod: func(nb map[core.NodeID][]core.NodeID) map[core.NodeID][]core.NodeID {
				nb[3] = nil
				return nb
			}}
			return check.Static(cs, check.MultiTreeOptions(s, 6))
		}},
		{"early backbone send", func(t *testing.T) (*check.Report, error) {
			s, err := cluster.New(cluster.Config{
				K: 9, D: 3, Tc: 5, ClusterSize: 10, Degree: 2, Intra: cluster.MultiTree,
			})
			if err != nil {
				t.Fatal(err)
			}
			cs := &corrupt{Scheme: s, txMod: appendAt(0,
				core.Transmission{From: s.SuperID(0), To: s.SuperID(3), Packet: 0})}
			return check.Static(cs, check.ClusterOptions(s, 6, 60))
		}},
		{"issue cap", func(t *testing.T) (*check.Report, error) {
			_, s := mustMultiTree(t, 13, 2)
			cs := &corrupt{Scheme: s, txMod: func(t core.Slot, txs []core.Transmission) []core.Transmission {
				for i := range txs {
					txs[i].To = txs[i].From
				}
				return txs
			}}
			opt := check.MultiTreeOptions(s, 6)
			opt.MaxIssues = 5
			opt.AllowIncomplete = true
			return check.Static(cs, opt)
		}},
		{"issue cap across passes", func(t *testing.T) (*check.Report, error) {
			// Hold violations fill all but two places, then three missing
			// mesh edges are to be filed: the cut falls inside them.
			_, s := mustMultiTree(t, 13, 2)
			opt := check.MultiTreeOptions(s, 6)
			opt.MaxIssues = 4
			cs := &corrupt{Scheme: s,
				txMod: appendAt(1,
					core.Transmission{From: 5, To: 6, Packet: 30},
					core.Transmission{From: 7, To: 8, Packet: 31}),
				nbMod: func(nb map[core.NodeID][]core.NodeID) map[core.NodeID][]core.NodeID {
					nb[3], nb[4] = nil, nil
					return nb
				}}
			return check.Static(cs, opt)
		}},
		{"hold violation and missing mesh edge", func(t *testing.T) (*check.Report, error) {
			// One transmission breaks both rules (its sender cannot hold the
			// packet and the edge is not in the mesh); it recurs in a later
			// slot, where the edge is reported once only. A degree overflow
			// is filed between the two.
			s, err := hypercube.New(15, 1)
			if err != nil {
				t.Fatal(err)
			}
			opt := check.HypercubeOptions(s, 8)
			stray := core.Transmission{From: 3, To: 12, Packet: 40}
			cs := &corrupt{Scheme: s,
				txMod: func(t core.Slot, txs []core.Transmission) []core.Transmission {
					if t != 2 && t != 9 {
						return txs
					}
					return append(append([]core.Transmission(nil), txs...), stray)
				},
				nbMod: func(nb map[core.NodeID][]core.NodeID) map[core.NodeID][]core.NodeID {
					nb[9] = append(nb[9], 20, 21)
					nb[6] = nil
					return nb
				}}
			return check.Static(cs, opt)
		}},
		{"compiled window, steady packet corrupted", func(t *testing.T) (*check.Report, error) {
			c, opt := compiledMultiTree(t, 20, 3)
			steady, _, backing, off := c.Window()
			backing[off[steady]].Packet += 2
			return check.VerifyCompiled(c, opt)
		}},
		{"compiled window, warmup receiver corrupted", func(t *testing.T) (*check.Report, error) {
			c, opt := compiledMultiTree(t, 20, 3)
			_, _, backing, off := c.Window()
			tx := &backing[off[0]]
			tx.To = core.NodeID(c.NumReceivers())
			if tx.To == tx.From {
				tx.To--
			}
			return check.VerifyCompiled(c, opt)
		}},
		{"compiled window, offsets corrupted", func(t *testing.T) (*check.Report, error) {
			c, opt := compiledMultiTree(t, 20, 3)
			_, _, _, off := c.Window()
			off[1] = off[2] + 1
			return check.VerifyCompiled(c, opt)
		}},
	}
}

// TestPinnedReports holds the verifier to the reports it produced before it
// was rewritten as one pass over a flat arrival matrix: every issue's text,
// the order issues are filed in, where MaxIssues cuts, and the measured
// delay, buffer and degree. testdata/pinned_reports.txt was written by the
// two-pass, map-based verifier; a diff means an observable change.
func TestPinnedReports(t *testing.T) {
	var got bytes.Buffer
	for _, pc := range pinnedCases() {
		rep, err := pc.run(t)
		if err != nil {
			t.Fatalf("%s: %v", pc.name, err)
		}
		if rep.OK() {
			t.Errorf("%s: corruption not detected", pc.name)
		}
		fmt.Fprintf(&got, "== %s\n", pc.name)
		fmt.Fprintf(&got, "scheme %s truncated=%v worst_delay=%d worst_buffer=%d max_neighbors=%d\n",
			rep.Scheme, rep.Truncated, rep.WorstDelay, rep.WorstBuffer, rep.MaxNeighbors)
		for _, is := range rep.Issues {
			fmt.Fprintf(&got, "%s\n", is)
		}
	}
	path := filepath.Join("testdata", "pinned_reports.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("verifier reports drifted from %s\n--- got\n%s\n--- want\n%s", path, got.Bytes(), want)
	}
}
