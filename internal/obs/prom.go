package obs

import (
	"fmt"
	"io"
)

// WriteProm emits the collected metrics in the Prometheus text exposition
// format (version 0.0.4): run totals as counters, the final in-flight count
// as a gauge, and the delivery-latency distribution as a cumulative-bucket
// histogram. Every metric carries the given scheme label. The output is
// suitable both for a textfile-collector scrape and for human inspection.
func (m *Metrics) WriteProm(w io.Writer, scheme string) error {
	tot := m.Totals()
	lbl := fmt.Sprintf("{scheme=%q}", scheme)
	counter := func(name, help string, v int) error {
		_, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s%s %d\n",
			name, help, name, name, lbl, v)
		return err
	}
	for _, c := range []struct {
		name, help string
		v          int
	}{
		{"streamcast_slots_total", "Simulated slots completed.", len(m.slots)},
		{"streamcast_scheduled_total", "Transmissions emitted by the scheme.", tot.Scheduled},
		{"streamcast_transmissions_total", "Validated transmissions sent.", tot.Transmits},
		{"streamcast_deliveries_total", "Packet arrivals (duplicates included).", tot.Delivers},
		{"streamcast_duplicates_total", "Arrivals of already-held packets.", tot.Duplicates},
		{"streamcast_drops_total", "Transmissions lost to failure injection.", tot.Drops},
		{"streamcast_violations_total", "Model-constraint violations detected.", m.violations},
	} {
		if err := counter(c.name, c.help, c.v); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w,
		"# HELP streamcast_inflight_packets Packets sent but not yet delivered at end of run.\n"+
			"# TYPE streamcast_inflight_packets gauge\nstreamcast_inflight_packets%s %d\n",
		lbl, tot.InFlight); err != nil {
		return err
	}

	h := m.Latency()
	if _, err := fmt.Fprintf(w,
		"# HELP streamcast_delivery_latency_slots Per-packet delivery lag behind the stream head, in slots.\n"+
			"# TYPE streamcast_delivery_latency_slots histogram\n"); err != nil {
		return err
	}
	for i, c := range h.Cumulative() {
		if _, err := fmt.Fprintf(w, "streamcast_delivery_latency_slots_bucket{scheme=%q,le=%q} %d\n",
			scheme, fmt.Sprintf("%g", h.Bounds[i]), c); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w,
		"streamcast_delivery_latency_slots_bucket{scheme=%q,le=\"+Inf\"} %d\n"+
			"streamcast_delivery_latency_slots_sum%s %g\n"+
			"streamcast_delivery_latency_slots_count%s %d\n",
		scheme, h.N, lbl, h.Sum, lbl, h.N)
	return err
}
