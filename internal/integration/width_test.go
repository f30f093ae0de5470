package integration

import (
	"fmt"
	"slices"
	"testing"

	"streamcast/internal/core"
	"streamcast/internal/mdc"
	"streamcast/internal/multitree"
	"streamcast/internal/obs"
	"streamcast/internal/slotsim"
	"streamcast/internal/spec"
)

// shifted is a periodic scheme run by slots late: slot t is the inner
// scheme's slot t − by, and nothing is sent before by. Its warm-up moves with
// it, so it keeps the inner scheme's period promise and a bare run of it may
// certify.
type shifted struct {
	core.Periodic
	by core.Slot
}

func (s shifted) Transmissions(t core.Slot) []core.Transmission {
	if t < s.by {
		return nil
	}
	return s.Periodic.Transmissions(t - s.by)
}

func (s shifted) Period() (warm, P core.Slot) {
	warm, P = s.Periodic.Period()
	return warm + s.by, P
}

// TestRecordWidthAgainstOracle runs a small live multi-tree on both sides of
// every cell-width boundary of the arrival record (255/256 and 65 535/65 536
// slots), shifted so that a window arrival lands in the horizon's last slot,
// whose cell is the largest the width must hold, and holds what the record
// gives to the oracle: every cell (At), Row, Hiccups, PlaybackSLO and
// mdc.SystemQuality, each computed here from the oracle's cells,
//   - on a bare run that certifies before its window is complete, whose
//     remaining cells, the last one among them, the certificate extrapolates;
//   - on an observed run whose horizon cuts the window two slots short, so
//     that cells past it stay unset, and there the report's buffer series too.
func TestRecordWidthAgainstOracle(t *testing.T) {
	run, err := spec.Build(spec.MultiTreeScenario(6, 2, multitree.Greedy, core.Live))
	if err != nil {
		t.Fatal(err)
	}
	inner, ok := run.Scheme.(core.Periodic)
	if !ok {
		t.Fatalf("%T declares no period", run.Scheme)
	}
	warm, P := inner.Period()
	window := core.Packet(int(3*(warm+P)) + 1)
	// The unshifted run's last window arrival, at its own horizon.
	alone, err := slotsim.Run(inner, slotsim.Options{Slots: 4 * core.Slot(int(window)), Packets: window, Mode: core.Live})
	if err != nil {
		t.Fatal(err)
	}
	last := alone.SlotsUsed - 1
	for _, horizon := range []core.Slot{255, 256, 65535, 65536} {
		for _, observed := range []bool{false, true} {
			name := fmt.Sprintf("%d/observed=%v", horizon, observed)
			by := horizon - 1 - last
			if observed {
				by += 2
			}
			s := shifted{inner, by}
			opt := slotsim.Options{Slots: horizon, Packets: window, Mode: core.Live, AllowIncomplete: true}
			want, cells, werr := oracle(s, opt)
			if werr != nil {
				t.Fatalf("%s: oracle: %v", name, werr)
			}
			var met *obs.Metrics
			if observed {
				met = obs.NewMetrics()
				opt.Observer = met
			}
			opt.Arrivals = new(slotsim.Arrivals)
			got, err := slotsim.Run(s, opt)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			// The bare run must certify before its last slot, or it
			// extrapolates nothing; an observed run never certifies.
			if certified := got.CertPeriod > 0; certified == observed || got.CertSlot >= horizon-1 {
				t.Fatalf("%s: certificate %d/%d at a horizon of %d", name, got.CertSlot, got.CertPeriod, horizon)
			}
			if diff := sameOutcome(got, opt.Arrivals, want, cells); diff != "" {
				t.Fatalf("%s: %s", name, diff)
			}
			top := core.Slot(-1)
			for _, row := range cells {
				for _, at := range row {
					top = max(top, at)
				}
			}
			if top != horizon-1 {
				t.Fatalf("%s: the last arrival is at slot %d, not in the horizon's last slot", name, top)
			}
			if missing := sumOf(got.Missing); observed != (missing > 0) {
				t.Fatalf("%s: %d window cells unset", name, missing)
			}
			holdsOracle(t, name, got, opt.Arrivals, cells)
			if observed {
				rep := slotsim.BuildReport(s, opt, got, met, 0)
				peak, total := oracleSeries(got, cells, len(met.SlotSeries()))
				if !slices.Equal(rep.Series.BufferMax, peak) || !slices.Equal(rep.Series.BufferTotal, total) {
					t.Errorf("%s: the report's buffer series differ from the oracle's", name)
				}
			}
		}
	}
}

// holdsOracle compares what the record gives — Row, Hiccups at two starts,
// PlaybackSLO over every receiver as a member since slot 0, and the MDC
// quality of two descriptions a round — with the same quantities computed
// from the oracle's cells.
func holdsOracle(t *testing.T, name string, res *slotsim.Result, rec *slotsim.Arrivals, cells oracleCells) {
	t.Helper()
	at := func(id core.NodeID, j int) core.Slot {
		if a, ok := cells[id][core.Packet(j)]; ok {
			return a
		}
		return -1
	}
	w := int(res.Packets)
	late := func(id core.NodeID, j int, start core.Slot) bool {
		a := at(id, j)
		return a < 0 || a > start+core.Slot(j)
	}
	var members []slotsim.Membership
	var slo slotsim.SLO
	const probe, firstChurn = 3, 0
	var sum, worst float64 = 0, 1
	for id := core.NodeID(0); int(id) <= res.N; id++ {
		row := make([]core.Slot, w)
		for j := range row {
			row[j] = at(id, j)
		}
		if got := rec.Row(id); !slices.Equal(got, row) {
			t.Fatalf("%s: node %d: Row %v, oracle %v", name, id, got, row)
		}
		if id == core.SourceID {
			continue
		}
		for _, start := range []core.Slot{res.StartDelay[id], res.StartDelay[id] - 1} {
			n := 0
			for j := range w {
				if late(id, j, start) {
					n++
				}
			}
			if got := rec.Hiccups(id, start); got != n {
				t.Errorf("%s: node %d: Hiccups from slot %d: %d, oracle %d", name, id, start, got, n)
			}
		}

		members = append(members, slotsim.Membership{Node: id, Leave: -1})
		start, probed := core.Slot(0), false
		for j := 0; j < probe; j++ {
			if a := at(id, j); a >= 0 && (!probed || a-core.Slot(j) > start) {
				start, probed = a-core.Slot(j), true
			}
		}
		if !probed {
			start = res.StartDelay[id]
		}
		slo.Nodes++
		slo.Expected += w
		run := core.Slot(0)
		for j := range w {
			if !late(id, j, start) {
				run = 0
				continue
			}
			slo.Hiccups++
			if run++; run == 1 {
				slo.Gaps++
			}
			slo.MaxStall = max(slo.MaxStall, run)
			slo.TimeToRepair = max(slo.TimeToRepair, start+core.Slot(j)+1-firstChurn)
		}

		// Round r of d descriptions plays when its last one is due; a
		// node's quality is the mean over rounds of the share on time.
		const d = 2
		var q float64
		for r := 0; r < w/d; r++ {
			have := 0
			for k := range d {
				if a := at(id, r*d+k); a >= 0 && a <= res.StartDelay[id]+core.Slot((r+1)*d-1) {
					have++
				}
			}
			q += float64(have) / d
		}
		q /= float64(w / d)
		sum += q
		worst = min(worst, q)
	}
	slo.RebufferRatio = float64(slo.Hiccups) / float64(slo.Expected)
	if got := slotsim.PlaybackSLO(res, rec, members, probe, firstChurn); got != slo {
		t.Errorf("%s: PlaybackSLO %+v, oracle %+v", name, got, slo)
	}
	if mean, low := mdc.SystemQuality(res, rec, 2); mean != sum/float64(res.N) || low != worst {
		t.Errorf("%s: SystemQuality %v/%v, oracle %v/%v", name, mean, low, sum/float64(res.N), worst)
	}
}

// oracleSeries is the report's two buffer series over slots 0..slots−1 from
// the oracle's cells: the largest and the summed occupancy over the receivers
// at the end of each slot, under each one's start delay.
func oracleSeries(res *slotsim.Result, cells oracleCells, slots int) (peak, total []int) {
	peak, total = make([]int, slots), make([]int, slots)
	for id := core.NodeID(1); int(id) <= res.N; id++ {
		held := make([]int, slots)
		for p, at := range cells[id] {
			if p < res.Packets && int(at) < slots {
				held[at]++
			}
		}
		n := 0
		for t := range slots {
			n += held[t]
			played := min(max(t-int(res.StartDelay[id]), 0), int(res.Packets))
			if occ := n - played; occ > 0 {
				peak[t] = max(peak[t], occ)
				total[t] += occ
			}
		}
	}
	return peak, total
}

func sumOf(xs []int) int {
	n := 0
	for _, x := range xs {
		n += x
	}
	return n
}
