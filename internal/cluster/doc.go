// Package cluster implements the multi-cluster "super-tree" τ of Section
// 2.1: K clusters, each with two super nodes S_i (capacity D, backbone
// relay) and S'_i (capacity d, intra-cluster root). The source S streams
// to the S_i over a backbone tree in which S has degree D and interior
// nodes degree D−1; every S_i forwards the stream to its backbone children
// (Tc slots per hop) and to its local S'_i (one slot), below which an
// intra-cluster scheme (multi-tree or hypercube) distributes packets to
// the cluster's receivers.
//
// Theorem 1: the worst-case playback delay is on the order of
// Tc·log_{D−1}K + Ti·d(h−1) — inter-cluster hops are paid once, in
// parallel with the intra-cluster distribution
// (analysis.Theorem1Bound gives the closed form).
//
// Entry points: New(Config) builds the scheme over a global id space
// (source 0, then per cluster S_i, S'_i and its receivers); Options is the
// engine configuration a run needs (live mode, per-kind send capacities,
// Tc-slot backbone latency), which the registry's cluster family hands to
// the engine; ReceiverDelays reads a run's delay over true receivers only;
// SuperID/LocalRootID/ReceiverIDs map the id space.
package cluster
