// The three benchmark workloads. Each loads its data, runs traffic for
// Options::seconds with one or more lazy migrations submitted under load,
// checks the final state, and returns its metrics. With a non-null
// SpanLog the run is traced: the engine's request tracing samples every
// op and bench-side spans wrap every public call.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "common.h"

namespace perfbench {

/// TPC-C full mix, open loop at Options::rate, customer split (paper §4.1).
Report RunTpccSplit(const Options& opts, SpanLog* spans);
/// Closed-loop 3-worker TPC-C capacity on a fresh load (ops/s). Used
/// once per host to fix the tpcc_split rate, never inside a run.
double CalibrateTpcc(const Options& opts);

/// YCSB-style Zipf read-heavy txns with a hot-key writer, chained lazy
/// projections (paper §4.4 regime).
Report RunYcsbZipf(const Options& opts, SpanLog* spans);

/// Wire client -> Server -> 2-shard router -> durable WAL, chained lazy
/// projections submitted through MIGRATE, plus a recovery check.
Report RunWireDurable(const Options& opts, SpanLog* spans);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
