// The three workloads.  Each sets up, measures for opt.seconds, verifies
// every timed unit, and fills the end-to-end metrics (opt.trace false) or
// the per-layer metrics from a traced run (opt.trace true).
#pragma once

#include "bench.hpp"
#include "layers.hpp"
#include "lb/exp/plan.hpp"

namespace lbperf {

void run_torus_2m_closed(const Options& opt, Pools& pools, Outcome& out);
void run_shard_open_tokens(const Options& opt, Pools& pools, Outcome& out);
void run_campaign_dynamic(const Options& opt, Pools& pools, Outcome& out);

/// The campaign-dynamic grid.
lb::exp::ExperimentPlan campaign_plan(std::uint64_t seed);

/// The small campaign (208 cells) whose exp/linalg probes the two large
/// workloads report, since their own legs bypass those layers.
lb::exp::ExperimentPlan bypass_probe_plan(std::uint64_t seed);

/// Setup repetitions per run; setup_s is their median.
inline constexpr int kSetupReps = 3;

}  // namespace lbperf
