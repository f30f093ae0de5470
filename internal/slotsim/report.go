package slotsim

import (
	"streamcast/internal/core"
	"streamcast/internal/obs"
)

// BuildReport assembles the machine-readable run report from a finished
// run: the scheme identity and schedule fingerprint, the engine options,
// the aggregate QoS numbers of the Result, the per-slot time-series
// collected by the Metrics observer (which must have been attached to the
// run via Options.Observer), and the buffer series folded from the run's
// arrival record. opt must be the run's Options with Arrivals set: a nil
// record is a caller bug and panics with a message saying so (spec.Build
// keeps a record for every scenario that writes a report, and a
// TestReportCallersKeepTheRecord beside each caller holds it to that).
// workers is the worker count the scenario requested (the engine ignores
// it); the parameter is kept for its last caller, bench/pipeline.go.
func BuildReport(s core.Scheme, opt Options, res *Result, m *obs.Metrics, workers int) *obs.RunReport {
	if opt.Arrivals == nil {
		panic("slotsim: BuildReport needs the run's arrival record: Options.Arrivals was nil")
	}
	rep := &obs.RunReport{
		Scheme:      s.Name(),
		Receivers:   res.N,
		Fingerprint: m.Fingerprint(),
		Options: obs.ReportOptions{
			Slots:           int(opt.Slots),
			Packets:         int(opt.Packets),
			Mode:            opt.Mode.String(),
			Workers:         workers,
			AllowDuplicates: opt.Churn != nil,
			AllowIncomplete: opt.AllowIncomplete,
			SkipUnavailable: opt.SkipUnavailable,
		},
		Latency: obs.NewLatencyReport(m.Latency()),
	}

	tot := m.Totals()
	missing := 0
	for _, v := range res.Missing {
		missing += v
	}
	rep.Aggregates = obs.Aggregates{
		WorstDelaySlots: int(res.WorstStartDelay()),
		AvgDelaySlots:   res.AvgStartDelay(),
		WorstBufferPkts: res.WorstBuffer(),
		SlotsUsed:       int(res.SlotsUsed),
		MissingPackets:  missing,
		Scheduled:       tot.Scheduled,
		Transmissions:   tot.Transmits,
		Deliveries:      tot.Delivers,
		Duplicates:      tot.Duplicates,
		Drops:           tot.Drops,
	}

	series := m.SlotSeries()
	rep.Series = obs.Series{
		Scheduled: make([]int, len(series)),
		Transmits: make([]int, len(series)),
		Delivers:  make([]int, len(series)),
		InFlight:  make([]int, len(series)),
	}
	drops := 0
	for i, sc := range series {
		rep.Series.Scheduled[i] = sc.Scheduled
		rep.Series.Transmits[i] = sc.Transmits
		rep.Series.Delivers[i] = sc.Delivers
		rep.Series.InFlight[i] = sc.InFlight
		drops += sc.Drops
	}
	if drops > 0 {
		rep.Series.Drops = make([]int, len(series))
		for i, sc := range series {
			rep.Series.Drops[i] = sc.Drops
		}
	}

	// Buffer-occupancy trajectories over the observed slots, folded from the
	// record under the Result's playback starts; the per-node maximum of the
	// occupancy they sum is exactly Result.MaxBuffer.
	rep.Series.BufferMax, rep.Series.BufferTotal = opt.Arrivals.bufferSeries(res, len(series))

	rep.PerNode = obs.PerNode{
		StartDelay: make([]int, res.N+1),
		MaxBuffer:  make([]int, res.N+1),
	}
	for id := 0; id <= res.N; id++ {
		rep.PerNode.StartDelay[id] = int(res.StartDelay[id])
		rep.PerNode.MaxBuffer[id] = res.MaxBuffer[id]
	}
	if missing > 0 {
		rep.PerNode.Missing = append([]int(nil), res.Missing...)
	}
	return rep
}

// foldBlock is how many consecutive ids bufferSeries folds at a time.
const foldBlock = 64

// bufferSeries folds the record into the run report's two per-slot buffer
// series over slots 0..slots−1: the largest and the summed buffer occupancy
// over the receivers at the end of every slot. Occupancy follows the engine's
// playback model: window packet j occupies node id's buffer from the end of
// its arrival slot through the end of slot res.StartDelay[id]+j, its playback
// slot, and a node that has played more packets than it holds (late or
// missing ones) holds none. The record and the ledger finish reads hold the
// same arrivals — a revived id's row only its new occupant's (resetNode) — so
// the per-node maximum of that occupancy is Result.MaxBuffer.
//
// The record is packet-major, so the fold takes it a block of ids at a time:
// each packet row's stretch of the block is one contiguous read, counted into
// a table of arrivals with a row per slot from the record's first arrival to
// its last. A walk over the slots from the first arrival then turns the table
// into each id's occupancy, clearing it as it goes, and stops once every
// buffer in the block has drained after its last arrival.
func (a *Arrivals) bufferSeries(res *Result, slots int) (peak, total []int) {
	w, stride := int(a.packets), a.stride
	peak, total = make([]int, slots), make([]int, slots)
	first, last := a.store.span()
	last = min(last, slots-1)
	// One row past the last arrival's stays zero: every later slot reads it.
	count := make([]int32, max(last-first+2, 0)*foldBlock)
	var have, start [foldBlock]int
	for lo := 1; lo <= res.N && first <= last; lo += foldBlock {
		hi := min(lo+foldBlock, res.N+1)
		k, left := hi-lo, a.store.tally(lo, hi, stride, w, first, last, count)
		for i := range k {
			have[i], start[i] = 0, int(res.StartDelay[lo+i])
		}
		for t := first; t < slots; t++ {
			at := (min(t, last+1) - first) * foldBlock
			row := count[at : at+k]
			sum, top := 0, 0
			for i, c := range row {
				have[i] += int(c)
				left -= int(c)
				row[i] = 0
				if occ := have[i] - min(max(t-start[i], 0), w); occ > 0 {
					sum += occ
					top = max(top, occ)
				}
			}
			if sum == 0 && left == 0 {
				break
			}
			total[t] += sum
			peak[t] = max(peak[t], top)
		}
	}
	return peak, total
}

// span returns the first and the last slot a cell records; first > last when
// none does. An unset cell (0) wraps past every slot, so the minimum skips it.
func (c cells[T]) span() (first, last int) {
	lo, hi := ^T(0), T(0)
	for _, v := range c {
		lo, hi = min(lo, v-1), max(hi, v)
	}
	return int(lo), int(hi) - 1
}

// tally counts the arrivals of ids lo..hi−1 (at most foldBlock) in slots
// first..last into count, a table of foldBlock cells a slot from first, and
// returns how many it counted.
func (c cells[T]) tally(lo, hi, stride, packets, first, last int, count []int32) int {
	n := 0
	for j := 0; j < packets; j++ {
		for i, v := range c[j*stride+lo : j*stride+hi] {
			// An unset cell (0) falls before first.
			if t := int(v) - 1 - first; uint(t) <= uint(last-first) {
				count[t*foldBlock+i]++
				n++
			}
		}
	}
	return n
}
