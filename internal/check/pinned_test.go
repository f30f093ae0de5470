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

// pinnedCase is one seeded corruption whose whole report is pinned; kind is
// a finding the report must carry.
type pinnedCase struct {
	name string
	kind string
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

// resendAt returns a txMod that schedules the first relayed transmission of
// one slot a second time in that slot.
func resendAt(at core.Slot) func(core.Slot, []core.Transmission) []core.Transmission {
	return func(t core.Slot, txs []core.Transmission) []core.Transmission {
		if t != at {
			return txs
		}
		for _, tx := range txs {
			if tx.From != core.SourceID {
				return append(txs, tx)
			}
		}
		return txs
	}
}

// rewriteFirstAt returns a txMod that rewrites the first transmission of one
// slot, on a copy of the scheme's slice.
func rewriteFirstAt(at core.Slot, rewrite func(*core.Transmission)) func(core.Slot, []core.Transmission) []core.Transmission {
	return func(t core.Slot, txs []core.Transmission) []core.Transmission {
		if t != at || len(txs) == 0 {
			return txs
		}
		out := append([]core.Transmission(nil), txs...)
		rewrite(&out[0])
		return out
	}
}

// withCaps raises every receiver's send capacity, and with recv also every
// receive capacity, to two packets per slot.
func withCaps(opt check.Options, d int, recv bool) check.Options {
	opt.SendCap = func(id core.NodeID) int {
		if id == core.SourceID {
			return d
		}
		return 2
	}
	if recv {
		opt.RecvCap = func(core.NodeID) int { return 2 }
	}
	return opt
}

// unlisted returns an nbMod under which every listed node lists no
// neighbor, so every scheduled edge between receivers is off the mesh.
func unlisted(nb map[core.NodeID][]core.NodeID) map[core.NodeID][]core.NodeID {
	for id := range nb {
		nb[id] = nil
	}
	return nb
}

// pinnedCases are the seeded corruptions of check_test.go, one row per
// slot-model violation the engine reports, and three that cover how findings
// of different passes interleave: the MaxIssues cut within one pass and
// across passes, and a transmission that breaks both a hold rule and the mesh
// (the slot-model finding is filed before the mesh findings).
func pinnedCases() []pinnedCase {
	return []pinnedCase{
		{"shared interior", check.KindInterior, func(t *testing.T) (*check.Report, error) {
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
		{"fan-out overflow in two residue classes", check.KindFanout, func(t *testing.T) (*check.Report, error) {
			// The interior node feeds three further children in its own
			// tree and three in the other one; the run stops at the first
			// of them, which overflows its own tree's child list.
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
		{"double send", check.KindSendCap, func(t *testing.T) (*check.Report, error) {
			_, s := mustMultiTree(t, 20, 3)
			opt := check.MultiTreeOptions(s, 9)
			return check.Static(&corrupt{Scheme: s, txMod: resendAt(opt.DelayBound + 3)}, opt)
		}},
		{"double receive", check.KindRecvCap, func(t *testing.T) (*check.Report, error) {
			// The same resend with room to send it twice.
			_, s := mustMultiTree(t, 20, 3)
			opt := withCaps(check.MultiTreeOptions(s, 9), 3, false)
			return check.Static(&corrupt{Scheme: s, txMod: resendAt(opt.DelayBound + 3)}, opt)
		}},
		{"duplicate packet", check.KindDuplicate, func(t *testing.T) (*check.Report, error) {
			// ... and with room to receive it twice.
			_, s := mustMultiTree(t, 20, 3)
			opt := withCaps(check.MultiTreeOptions(s, 9), 3, true)
			return check.Static(&corrupt{Scheme: s, txMod: resendAt(opt.DelayBound + 3)}, opt)
		}},
		{"self transmission", check.KindSelf, func(t *testing.T) (*check.Report, error) {
			_, s := mustMultiTree(t, 13, 2)
			opt := check.MultiTreeOptions(s, 6)
			cs := &corrupt{Scheme: s, txMod: rewriteFirstAt(opt.DelayBound+2, func(tx *core.Transmission) {
				tx.To = tx.From
			})}
			return check.Static(cs, opt)
		}},
		{"receiver out of range", check.KindRange, func(t *testing.T) (*check.Report, error) {
			_, s := mustMultiTree(t, 13, 2)
			opt := check.MultiTreeOptions(s, 6)
			cs := &corrupt{Scheme: s, txMod: rewriteFirstAt(opt.DelayBound+2, func(tx *core.Transmission) {
				tx.To = core.NodeID(s.NumReceivers() + 7)
			})}
			return check.Static(cs, opt)
		}},
		{"degree overflow", check.KindDegree, func(t *testing.T) (*check.Report, error) {
			_, s := mustMultiTree(t, 13, 2)
			cs := &corrupt{Scheme: s, nbMod: func(nb map[core.NodeID][]core.NodeID) map[core.NodeID][]core.NodeID {
				for id := core.NodeID(20); id <= 25; id++ {
					nb[1] = append(nb[1], id) // ids outside the mesh: no duplicate can hide one
				}
				return nb
			}}
			return check.Static(cs, check.MultiTreeOptions(s, 6))
		}},
		{"degree overflow at listed ids outside the node range", check.KindDegree, func(t *testing.T) (*check.Report, error) {
			// A walked id outside 1..n is a range finding, filed as the
			// walk yields it; in-range degrees are audited in id order.
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
		{"missing mesh edge", check.KindMesh, func(t *testing.T) (*check.Report, error) {
			_, s := mustMultiTree(t, 13, 2)
			cs := &corrupt{Scheme: s, nbMod: func(nb map[core.NodeID][]core.NodeID) map[core.NodeID][]core.NodeID {
				nb[3] = nil
				return nb
			}}
			return check.Static(cs, check.MultiTreeOptions(s, 6))
		}},
		{"early backbone send", check.KindNotHeld, func(t *testing.T) (*check.Report, error) {
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
		{"issue cap", check.KindMesh, func(t *testing.T) (*check.Report, error) {
			_, s := mustMultiTree(t, 13, 2)
			opt := check.MultiTreeOptions(s, 6)
			opt.MaxIssues = 5
			return check.Static(&corrupt{Scheme: s, nbMod: unlisted}, opt)
		}},
		{"issue cap across passes", check.KindNotHeld, func(t *testing.T) (*check.Report, error) {
			// A hold violation is filed first, then the missing mesh edges
			// the run met up to it — slot 0's and its own: the cut falls
			// inside them.
			_, s := mustMultiTree(t, 13, 2)
			opt := check.MultiTreeOptions(s, 6)
			opt.MaxIssues = 3
			cs := &corrupt{Scheme: s,
				txMod: appendAt(1, core.Transmission{From: 5, To: 6, Packet: 30}),
				nbMod: unlisted}
			return check.Static(cs, opt)
		}},
		{"incomplete window", check.KindIncomplete, func(t *testing.T) (*check.Report, error) {
			m, s := mustMultiTree(t, 13, 2)
			return check.Static(starve(s, findInterior(t, m)), check.MultiTreeOptions(s, 6))
		}},
		{"hold violation and missing mesh edge", check.KindNotHeld, func(t *testing.T) (*check.Report, error) {
			// One transmission breaks both rules (its sender cannot hold the
			// packet and the edge is not in the mesh). A degree overflow is
			// filed between the two findings.
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
	}
}

// TestPinnedReports holds the verifier to its whole reports: every issue's
// text, the order issues are filed in, where MaxIssues cuts, and the measured
// delay, buffer and degree. testdata/pinned_reports.txt was last rewritten
// when a walked id outside 1..n became a range finding instead of a degree
// row; a diff means an observable change.
func TestPinnedReports(t *testing.T) {
	var got bytes.Buffer
	for _, pc := range pinnedCases() {
		rep, err := pc.run(t)
		if err != nil {
			t.Fatalf("%s: %v", pc.name, err)
		}
		if !rep.HasKind(pc.kind) {
			t.Errorf("%s: no %q finding: %v", pc.name, pc.kind, rep.Issues)
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
