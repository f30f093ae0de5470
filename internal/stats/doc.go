// Package stats is the summary-statistics toolkit shared by the experiment
// runners and the observability layer.
//
// The paper (Sections 2.3, 3.3, Table 1) reports only worst-case and mean
// values of playback delay and buffer occupancy; this reproduction also
// measures full distributions, which is what this package computes.
//
// Two families of tools are provided:
//
//   - Batch statistics over a complete sample: Summarize (min/mean/max,
//     exact p50/p90/p99, standard deviation), Percentile (nearest-rank
//     quantiles over a sorted sample), Histogram (equal-width bins) and
//     Sparkline (one-character-per-bin ASCII rendering used in the
//     delaydist experiment tables).
//
//   - StreamingHist, a fixed-boundary streaming histogram that ingests one
//     observation at a time in O(log buckets) without retaining the sample,
//     or n equal observations at once with ObserveN. It is the backing store
//     for the per-packet delivery-latency distributions collected by
//     internal/obs (the sample there is one observation per delivered
//     packet, too large to retain at scale). Those lags are whole slots, so
//     obs.Metrics counts them in a table indexed by lag while the run goes
//     and folds the counts in with ObserveN when the histogram is read: the
//     buckets, N, Min and Max come out as per-delivery Observe calls leave
//     them, and Sum too, being a sum of integers below 2^53. Its
//     cumulative-bucket form maps directly onto the Prometheus text
//     exposition format that obs.Metrics exports.
//     LinearBounds and ExponentialBounds build common boundary layouts;
//     Merge combines per-shard histograms, so parallel collectors can
//     aggregate without locking.
//
// Entry points: Summarize for batch samples, NewStreamingHist for streaming
// collection.
package stats
