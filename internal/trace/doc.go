// Package trace renders the paper's figures as text. The figure renderers cover tree layouts
// (Figure 3), per-node transmission schedules (Figure 2), the cluster
// super-tree (Figure 1), hypercube pairing patterns (Figure 7), and the
// slot-by-slot buffer evolution of the hypercube scheme (Figures 5 and 6).
// All output is golden-tested under testdata/.
//
// Entry points: the per-figure renderers in trace.go. The machine-readable
// companion of the figures is obs.JSONLWriter's event trace (see
// OBSERVABILITY.md); its format is golden-tested here too.
package trace
