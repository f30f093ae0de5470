// Package obs is the observability layer of the slot simulator: a
// per-slot event-hook contract (Observer) that the slotsim engine honours,
// plus the standard consumers — a metrics collector, a JSONL trace
// recorder, and Prometheus-text / JSON-report exporters.
//
// The paper's central object is a trajectory: buffer occupancy and playback
// lag evolving slot by slot (Figures 5 and 6 trace them by hand for the
// hypercube scheme). The engines compute those trajectories internally but
// historically reported only end-of-run aggregates; an Observer passed via
// slotsim.Options.Observer sees every slot boundary, transmission,
// delivery, failure-injection drop and constraint violation as it happens,
// in a deterministic order.
//
// Consumers shipped here:
//
//   - Metrics — per-slot counter series, per-node totals, buffer-occupancy
//     time-series (OccupancySeries), a streaming delivery-latency histogram
//     (stats.StreamingHist) and an FNV-1a schedule fingerprint. Export with
//     WriteProm (Prometheus text format) or slotsim.BuildReport (JSON
//     RunReport).
//   - JSONLWriter — a compact one-object-per-line event log; ReadEvents
//     inverts it. internal/trace golden-tests the format.
//   - Recorder — in-memory event capture, used by the event-stream
//     parity tests (compiled vs interpreted schedules, replays).
//   - Funcs — free-function adapter for one-off hooks.
//   - Combine — fan-out to several observers (nil-safe).
//
// A worked example, collecting the buffer trajectory of a hypercube run
// (the programmatic Figure 5):
//
//	s, _ := hypercube.New(7, 1)
//	m := obs.NewMetrics()
//	res, err := slotsim.Run(s, slotsim.Options{
//		Slots: 20, Packets: 8, Mode: core.Live, Observer: m,
//	})
//	if err != nil { ... }
//	occ := m.OccupancySeries(res.StartDelay, res.Packets)
//	// occ[id][t] is node id's buffer occupancy at the end of slot t;
//	// max over t equals res.MaxBuffer[id] (2 packets — Proposition 1).
//	rep := slotsim.BuildReport(s, opt, res, m)
//	rep.WriteJSON(os.Stdout)
//
// Overhead: with a nil Observer the engine skips all hook work (a single
// pointer check per event site); see OBSERVABILITY.md for measured numbers.
package obs
