// Layer probes shared by the three workloads.  Each probe times calls
// into one layer's public functions on the workload's own inputs and
// writes that layer's per-layer metrics; on a workload whose end-to-end
// legs bypass the layer the probe still runs, and README.md states that
// the end-to-end prediction there is no change.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "lb/core/engine.hpp"
#include "lb/core/round_context.hpp"
#include "lb/exp/plan.hpp"
#include "lb/exp/report.hpp"
#include "lb/graph/graph.hpp"
#include "lb/shard/halo.hpp"
#include "lb/shard/sharded_engine.hpp"
#include "lb/util/thread_pool.hpp"
#include "lb/workload/stream.hpp"
#include "traced.hpp"

namespace lbperf {

/// The two pools every run uses; legs alternate between them.
struct Pools {
  lb::util::ThreadPool w1{1};
  lb::util::ThreadPool w4{4};
  lb::util::ThreadPool& at(int i) { return i == 0 ? w1 : w4; }
  static const char* label(int i) { return i == 0 ? "w1" : "w4"; }
};

/// Engine settings of a fixed-length timed unit: every round executes.
lb::core::EngineConfig fixed_rounds_config(std::size_t rounds, std::uint64_t seed,
                                           lb::util::ThreadPool& pool);

// --- open-system traffic ------------------------------------------------

/// The shard-open-tokens traffic: a Poisson stream plus a bursty stream,
/// thousands of arrival and departure events per round.
std::vector<lb::workload::StreamSpec> open_stream_specs();

/// Sum of several streams: per round, the node-sorted union of their
/// deltas with amounts on a shared node added.  Pure in (streams, round)
/// like its parts, so it satisfies the stream determinism contract.
template <class T>
class MergedStream final : public lb::workload::Stream<T> {
 public:
  MergedStream(std::size_t n, std::uint64_t seed) {
    std::uint64_t s = seed;
    for (const lb::workload::StreamSpec& spec : open_stream_specs()) {
      parts_.push_back(lb::workload::make_stream<T>(spec, n, s++));
    }
  }
  void reset() override {
    for (auto& p : parts_) p->reset();
  }
  std::string name() const override { return "poisson+bursty"; }
  const lb::workload::StreamDelta<T>& delta_at(std::size_t round) override {
    delta_.arrivals.clear();
    delta_.departures.clear();
    for (auto& p : parts_) {
      const lb::workload::StreamDelta<T>& d = p->delta_at(round);
      merge_into(delta_.arrivals, d.arrivals);
      merge_into(delta_.departures, d.departures);
    }
    return delta_;
  }

 private:
  using Entries = std::vector<std::pair<lb::graph::NodeId, T>>;
  void merge_into(Entries& acc, const Entries& add) {
    scratch_.clear();
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < acc.size() || j < add.size()) {
      if (j == add.size() || (i < acc.size() && acc[i].first < add[j].first)) {
        scratch_.push_back(acc[i++]);
      } else if (i == acc.size() || add[j].first < acc[i].first) {
        scratch_.push_back(add[j++]);
      } else {
        scratch_.emplace_back(acc[i].first, acc[i].second + add[j].second);
        ++i;
        ++j;
      }
    }
    acc.swap(scratch_);
  }

  std::vector<std::unique_ptr<lb::workload::Stream<T>>> parts_;
  lb::workload::StreamDelta<T> delta_;
  Entries scratch_;
};

/// workload.*: time delta_at and tally+apply of the open-system stream
/// over `rounds` rounds against a scratch copy of `load`.  Used where the
/// workload's own legs carry no stream.
template <class T>
void stream_probe(const std::vector<T>& load, std::uint64_t seed, std::size_t rounds,
                  Report& rep) {
  MergedStream<T> stream(load.size(), seed);
  std::vector<T> scratch = load;
  std::vector<double> delta_us;
  std::vector<double> apply_us;
  double entries = 0.0;
  for (std::size_t r = 1; r <= rounds; ++r) {
    auto t0 = Clock::now();
    const lb::workload::StreamDelta<T>& d = stream.delta_at(r);
    delta_us.push_back(seconds_since(t0) * 1e6);
    t0 = Clock::now();
    (void)lb::workload::tally_stream_delta(d, scratch);
    lb::workload::apply_stream_delta(d, scratch);
    apply_us.push_back(seconds_since(t0) * 1e6);
    entries += static_cast<double>(d.arrivals.size() + d.departures.size());
  }
  rep.set("workload.delta_us", median(delta_us));
  rep.set("workload.apply_us", median(apply_us));
  rep.set("workload.entries_per_round", entries / static_cast<double>(rounds));
}

// --- shard / sim --------------------------------------------------------

/// OwnershipMap + HaloExchange build times for K = 4 (greedy edge cut).
struct ShardPlan {
  lb::shard::OwnershipMap map;
  lb::shard::HaloExchange halo;
  double partition_ms = 0.0;
  double halo_plan_ms = 0.0;
};
ShardPlan build_shard_plan(const lb::graph::Graph& g);

/// shard.overhead.k1 / k4 and sim.*: interleaved core::run and shard::run
/// legs of `balancer` on the same input (core w1, shard K1 w1, core w4,
/// shard K4 w4), `reps` times.  Every shard leg must equal the core::run
/// result, loads included.
template <class T>
void shard_overhead_probe(lb::core::Balancer<T>& balancer, lb::graph::GraphSequence& seq,
                          const std::vector<T>& init, lb::core::EngineConfig cfg,
                          Pools& pools, int reps, Report& rep, Gate& gate) {
  std::vector<T> work;
  std::vector<T> ref_load;
  LegResult ref;
  bool have_ref = false;
  // [core w1, shard k1 w1, core w4, shard k4 w4]
  std::vector<double> ms[4];
  double messages = 0.0;
  double bytes = 0.0;
  for (int r = 0; r < reps; ++r) {
    for (int leg = 0; leg < 4; ++leg) {
      const bool sharded = leg % 2 == 1;
      cfg.pool = &pools.at(leg < 2 ? 0 : 1);
      lb::shard::ShardConfig sc;
      sc.domains = leg == 1 ? 1 : 4;
      work = init;
      seq.reset();
      const auto t0 = Clock::now();
      const lb::core::RunResult res = sharded ? lb::shard::run(balancer, seq, work, cfg, sc)
                                              : lb::core::run(balancer, seq, work, cfg);
      const double dt = seconds_since(t0);
      ms[leg].push_back(dt * 1e3 / static_cast<double>(std::max<std::size_t>(res.rounds, 1)));
      if (!have_ref) {
        ref = leg_result(res);
        ref_load = work;
        have_ref = true;
      } else {
        gate.check(same_result(ref, leg_result(res)) && bytes_equal(ref_load, work),
                   sharded ? "shard::run result differs from core::run"
                           : "core::run result differs between pools");
      }
      if (leg == 3) {
        messages = static_cast<double>(res.comm.messages) / static_cast<double>(res.rounds);
        bytes = static_cast<double>(res.comm.boundary_bytes) / static_cast<double>(res.rounds);
      }
    }
  }
  rep.set("shard.overhead.k1", median(ms[1]) / median(ms[0]));
  rep.set("shard.overhead.k4", median(ms[3]) / median(ms[2]));
  rep.set("sim.messages_per_round", messages);
  rep.set("sim.boundary_bytes_per_round", bytes);
}

// --- core ---------------------------------------------------------------

/// core.summary_ms.{w1,w4}: the unfused summarize_deterministic pass over
/// `load`, median of `reps` calls per pool.
template <class T>
void summary_probe(const std::vector<T>& load, Pools& pools, int reps, Report& rep) {
  std::vector<lb::core::SummaryPartial<T>> parts;
  const double avg = lb::core::summarize(load).average;
  for (int w = 0; w < 2; ++w) {
    std::vector<double> ms;
    for (int r = 0; r < reps; ++r) {
      const auto t0 = Clock::now();
      (void)lb::core::summarize_deterministic(load, avg, &pools.at(w),
                                              lb::core::SummaryMode::kFull, parts);
      ms.push_back(seconds_since(t0) * 1e3);
    }
    rep.set(std::string("core.summary_ms.") + Pools::label(w), median(ms));
  }
}

/// Computed bytes one round of an edge-flow balancer touches, from array
/// sizes: the single-worker path is one fused sweep (snapshot copy, load
/// read/write, edge list), the parallel path adds the per-edge flow
/// buffer and the CSR gather.  `extra_node_bytes` covers per-node state
/// such as SOS's previous-round vector.
double round_bytes_computed(std::size_t n, std::size_t m, std::size_t scalar_bytes,
                            bool parallel, std::size_t extra_node_bytes);

/// graph.bytes_per_node and core.ledger_bytes_per_node for `g`.
void memory_probe(const lb::graph::Graph& g, Report& rep);

/// check.overhead_ratio: an LB_CHECK-armed core::run ÷ an unarmed one at
/// w1, interleaved `reps` times.  Both must produce the same result.
template <class T>
void check_probe(lb::core::Balancer<T>& balancer, lb::graph::GraphSequence& seq,
                 const std::vector<T>& init, lb::core::EngineConfig cfg, Pools& pools,
                 int reps, Report& rep, Gate& gate) {
  cfg.pool = &pools.w1;
  std::vector<double> ms[2];
  std::vector<T> work;
  std::vector<T> ref_load;
  LegResult ref;
  for (int r = 0; r < reps; ++r) {
    for (int armed = 0; armed < 2; ++armed) {
      cfg.check_invariants = armed == 1;
      work = init;
      seq.reset();
      const auto t0 = Clock::now();
      const lb::core::RunResult res = lb::core::run(balancer, seq, work, cfg);
      ms[armed].push_back(seconds_since(t0));
      if (r == 0 && armed == 0) {
        ref = leg_result(res);
        ref_load = work;
      } else {
        gate.check(same_result(ref, leg_result(res)) && bytes_equal(ref_load, work),
                   "LB_CHECK-armed run differs from the unarmed run");
      }
    }
  }
  rep.set("check.overhead_ratio", median(ms[1]) / median(ms[0]));
}

// --- exp / linalg ---------------------------------------------------------

/// exp.* and linalg.* on `plan`: one kCached pass at w1 (per-cell times)
/// and one at w4 (shard imbalance), which must agree cell for cell; cold
/// spectral_summary per base; and a benchmark-owned SpectralCache fed
/// `frames` frames of each dynamic scenario on the bases `linalg_bases`.
void campaign_probes(const lb::exp::ExperimentPlan& plan,
                     const std::vector<std::size_t>& linalg_bases, std::size_t frames,
                     Pools& pools, Report& rep, Gate& gate);

/// The verified part of every cell of a campaign report (rounds, Φ,
/// discrepancy, stream totals; wall-clock fields excluded).
std::vector<LegResult> cell_results(const lb::exp::CampaignReport& report);

/// Cell-for-cell equality of two cell_results().
bool reports_equal(const std::vector<LegResult>& a, const std::vector<LegResult>& b);

// --- util ---------------------------------------------------------------

/// util.dispatch_us.w4: an empty parallel_for plus an empty
/// for_fixed_chunks round trip on the 4-worker pool, median of `reps`.
double dispatch_us(lb::util::ThreadPool& pool, int reps);

/// Peak resident set size of the process so far, in MB (getrusage).
double peak_rss_mb();

/// The bandwidth ceiling: a STREAM-style triad a[i] = b[i] + s·c[i] over
/// three arrays of `array_bytes` each, at w1 and w4.
struct Triad {
  std::size_t array_bytes = 0;
  std::size_t llc_bytes = 0;
  double gbps_w1 = 0.0;
  double gbps_w4 = 0.0;
};
Triad triad_probe(Pools& pools);

}  // namespace lbperf
