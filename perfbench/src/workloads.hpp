// The benchmark's workloads. Each fills `result` with the end-to-end
// metrics (options.trace false) or the per-layer metrics of its traced run
// (options.trace true), plus attempted/failed counts and its correctness
// verdict.
#pragma once

#include "common.hpp"

namespace perfbench {

/// Sharded expanded Controller under Poisson utility churn.
void run_churn_steady(const Options& options, Result& result);
/// The same controller fed whole-shard bursts.
void run_churn_burst(const Options& options, Result& result);
/// Classed shards at N = 10^6 in k = 32 classes.
void run_classed_million(const Options& options, Result& result);
/// run_switch replications of FIFO, Fair Share, DRR and SFQ.
void run_packet_sim(const Options& options, Result& result);

}  // namespace perfbench
