package slotsim

import (
	"streamcast/internal/core"
	"streamcast/internal/obs"
)

// BuildReport assembles the machine-readable run report from a finished
// run: the scheme identity and schedule fingerprint, the engine options,
// the aggregate QoS numbers of the Result, and the per-slot time-series
// collected by the Metrics observer (which must have been attached to the
// run via Options.Observer). workers is the worker count the scenario
// requested (the engine ignores it); the parameter is kept for its last
// caller, bench/pipeline.go.
func BuildReport(s core.Scheme, opt Options, res *Result, m *obs.Metrics, workers int) *obs.RunReport {
	rep := &obs.RunReport{
		Scheme:      s.Name(),
		Receivers:   res.N,
		Fingerprint: m.Fingerprint(),
		Options: obs.ReportOptions{
			Slots:           int(opt.Slots),
			Packets:         int(opt.Packets),
			Mode:            opt.Mode.String(),
			Workers:         workers,
			AllowDuplicates: opt.AllowDuplicates,
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

	// Buffer-occupancy trajectories, folded from the observed arrivals
	// under the Result's playback starts; the per-node maximum of the
	// occupancy they sum is exactly Result.MaxBuffer.
	rep.Series.BufferMax, rep.Series.BufferTotal = m.BufferSeries(res.StartDelay, res.Packets)

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
