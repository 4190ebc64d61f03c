#include "layers.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "lb/core/flow_ledger.hpp"
#include "lb/exp/campaign.hpp"
#include "lb/graph/dynamic.hpp"
#include "lb/graph/generators.hpp"
#include "lb/graph/properties.hpp"
#include "lb/linalg/spectral.hpp"
#include "lb/linalg/spectral_cache.hpp"

namespace lbperf {

using lb::util::ThreadPool;

lb::core::EngineConfig fixed_rounds_config(std::size_t rounds, std::uint64_t seed,
                                           ThreadPool& pool) {
  lb::core::EngineConfig cfg;
  cfg.max_rounds = rounds;
  cfg.target_potential = 0.0;
  cfg.stall_rounds = 0;
  cfg.record_trace = false;
  cfg.seed = seed;
  cfg.pool = &pool;
  return cfg;
}

std::vector<lb::workload::StreamSpec> open_stream_specs() {
  lb::workload::StreamSpec poisson;
  poisson.kind = lb::workload::StreamKind::kPoisson;
  poisson.arrival_rate = 3000.0;
  poisson.departure_rate = 3000.0;
  poisson.quantum = 4.0;
  lb::workload::StreamSpec bursty;
  bursty.kind = lb::workload::StreamKind::kBursty;
  bursty.arrival_rate = 1500.0;
  bursty.departure_rate = 1500.0;
  bursty.quantum = 4.0;
  bursty.burst_prob = 0.25;
  return {poisson, bursty};
}

ShardPlan build_shard_plan(const lb::graph::Graph& g) {
  ShardPlan plan;
  auto t0 = Clock::now();
  plan.map = lb::shard::OwnershipMap::build(g, 4, lb::shard::PartitionPolicy::kGreedyEdgeCut);
  plan.partition_ms = seconds_since(t0) * 1e3;
  t0 = Clock::now();
  plan.halo = lb::shard::HaloExchange::build(g, plan.map);
  plan.halo_plan_ms = seconds_since(t0) * 1e3;
  return plan;
}

double round_bytes_computed(std::size_t n, std::size_t m, std::size_t scalar_bytes,
                            bool parallel, std::size_t extra_node_bytes) {
  const double nd = static_cast<double>(n);
  const double md = static_cast<double>(m);
  const double s = static_cast<double>(scalar_bytes);
  const double edges = 8.0 * md;  // (u, v) as two 32-bit ids
  double bytes = edges + static_cast<double>(extra_node_bytes) * nd;
  if (!parallel) {
    bytes += 4.0 * s * nd;  // snapshot write + read, load read + write
  } else {
    bytes += 2.0 * s * nd;               // load read + write
    bytes += 2.0 * 8.0 * md;             // flow write, flow-total read
    bytes += 2.0 * md * (4.0 + 1.0 + 8.0) + 8.0 * nd;  // CSR gather
  }
  return bytes;
}

void memory_probe(const lb::graph::Graph& g, Report& rep) {
  const auto n = static_cast<double>(g.num_nodes());
  lb::core::FlowLedger ledger;
  ledger.rebuild(g);
  rep.set("graph.bytes_per_node", static_cast<double>(g.memory_bytes()) / n);
  rep.set("core.ledger_bytes_per_node", static_cast<double>(ledger.memory_bytes()) / n);
}

bool reports_equal(const std::vector<LegResult>& a, const std::vector<LegResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same_result(a[i], b[i])) return false;
  }
  return true;
}

std::vector<LegResult> cell_results(const lb::exp::CampaignReport& report) {
  std::vector<LegResult> out;
  out.reserve(report.cells.size());
  for (const auto& c : report.cells) out.push_back(leg_result(c.run));
  return out;
}

namespace {

std::unique_ptr<lb::graph::GraphSequence> scenario_sequence(
    const lb::exp::ScenarioSpec& s, const lb::graph::Graph& base, std::uint64_t seed) {
  using lb::exp::ScenarioKind;
  switch (s.kind) {
    case ScenarioKind::kBernoulli:
      return lb::graph::make_bernoulli_sequence(base, s.a, seed);
    case ScenarioKind::kMarkov:
      return lb::graph::make_markov_failure_sequence(base, s.a, s.b, seed);
    case ScenarioKind::kChurn:
      return lb::graph::make_churn_sequence(base, s.a, s.b, seed);
    case ScenarioKind::kPartition:
      return lb::graph::make_partition_sequence(base, s.period);
    case ScenarioKind::kWave:
      return lb::graph::make_failure_wave_sequence(base, s.period, s.speed);
    case ScenarioKind::kStatic:
      break;
  }
  return lb::graph::make_static_sequence(base);
}

}  // namespace

void campaign_probes(const lb::exp::ExperimentPlan& plan,
                     const std::vector<std::size_t>& linalg_bases, std::size_t frames,
                     Pools& pools, Report& rep, Gate& gate) {
  // exp: the same plan at w1 and at w4.
  lb::exp::CampaignRunner runner1({lb::exp::ArtifactMode::kCached, &pools.w1});
  lb::exp::CampaignRunner runner4({lb::exp::ArtifactMode::kCached, &pools.w4});
  const lb::exp::CampaignReport r1 = runner1.run(plan);
  const lb::exp::CampaignReport r4 = runner4.run(plan);
  gate.check(reports_equal(cell_results(r1), cell_results(r4)),
             "campaign report at w4 differs from w1");
  std::vector<double> cell_ms;
  for (const auto& c : r1.cells) cell_ms.push_back((c.setup_seconds + c.run_seconds) * 1e3);
  const std::optional<double> p90 = tail_percentile(cell_ms, 0.9);
  if (!p90) throw std::logic_error("exp probe plan has fewer than 100 cells");
  rep.set("exp.cell_ms_p50.w1", median(cell_ms));
  rep.set("exp.cell_ms_p90.w1", *p90);
  std::vector<double> busy(pools.w4.size(), 0.0);
  for (const auto& c : r4.cells) {
    busy[c.cell.graph % busy.size()] += c.setup_seconds + c.run_seconds;
  }
  std::vector<double> used;
  for (double b : busy) {
    if (b > 0.0) used.push_back(b);
  }
  const double mean = std::accumulate(used.begin(), used.end(), 0.0) /
                      static_cast<double>(used.size());
  rep.set("exp.shard_imbalance.w4", *std::max_element(used.begin(), used.end()) / mean);

  // linalg: cold spectral_summary per base.
  std::vector<lb::graph::Graph> bases;
  double lambda2_s = 0.0;
  for (std::size_t gi = 0; gi < plan.graphs.size(); ++gi) {
    lb::util::Rng rng(lb::exp::graph_build_seed(plan, gi));
    bases.push_back(lb::graph::make_named(plan.graphs[gi].family, plan.graphs[gi].n, rng));
    const auto t0 = Clock::now();
    (void)lb::linalg::spectral_summary(bases.back());
    lambda2_s += seconds_since(t0);
  }
  rep.set("linalg.lambda2_ms", lambda2_s * 1e3 / static_cast<double>(bases.size()));

  // linalg: a cache the benchmark owns, fed the dynamic cells' frames.
  lb::linalg::SpectralCache cache;
  lb::linalg::SpectralQuery query;
  query.bound_skip_tol = 0.05;
  for (std::size_t gi : linalg_bases) {
    for (std::size_t si = 0; si < plan.scenarios.size(); ++si) {
      if (plan.scenarios[si].kind == lb::exp::ScenarioKind::kStatic) continue;
      lb::exp::Cell cell;
      cell.graph = gi;
      cell.scenario = si;
      auto seq = scenario_sequence(plan.scenarios[si], bases[gi],
                                   lb::exp::scenario_seed(plan, cell));
      for (std::size_t k = 1; k <= frames; ++k) {
        const lb::graph::TopologyFrame& frame = seq->frame_at(k);
        if (frame.num_edges() == 0 || !lb::graph::is_connected(frame)) continue;
        (void)cache.lambda2(frame, query);
      }
    }
  }
  const lb::linalg::SpectralCacheStats& st = cache.stats();
  rep.set("linalg.exact_hits", static_cast<double>(st.exact_hits));
  rep.set("linalg.bound_skips", static_cast<double>(st.bound_skips));
  rep.set("linalg.warm_lanczos", static_cast<double>(st.warm_solves));
}

double dispatch_us(ThreadPool& pool, int reps) {
  std::vector<double> us;
  us.reserve(static_cast<std::size_t>(reps));
  const std::size_t width = pool.size();
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    pool.parallel_for(0, width, 1, [](std::size_t, std::size_t) {});
    lb::util::for_fixed_chunks(&pool, width, 1, [](std::size_t, std::size_t, std::size_t) {});
    us.push_back(seconds_since(t0) * 1e6);
  }
  return median(us);
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

Triad triad_probe(Pools& pools) {
  Triad t;
  const long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  t.llc_bytes = llc > 0 ? static_cast<std::size_t>(llc) : 0;
  // Each array at least 4x the LLC and at least 1.2 GB, so no pass is
  // served from cache.
  t.array_bytes = std::max<std::size_t>(4 * t.llc_bytes, 1'200'000'000);
  const std::size_t n = t.array_bytes / sizeof(double);
  // Left uninitialized so the first touch below is parallel.
  const std::unique_ptr<double[]> a(new double[n]);
  const std::unique_ptr<double[]> b(new double[n]);
  const std::unique_ptr<double[]> c(new double[n]);
  const std::size_t grain = 1 << 16;
  pools.w4.parallel_for(0, n, grain, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      a[i] = 0.0;
      b[i] = 1.0 + static_cast<double>(i & 7);
      c[i] = 0.5;
    }
  });
  const double scalar = 3.0;
  std::vector<double> gbps[2];
  for (int rep = 0; rep < 3; ++rep) {
    for (int w = 0; w < 2; ++w) {
      const auto t0 = Clock::now();
      pools.at(w).parallel_for(0, n, grain, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) a[i] = b[i] + scalar * c[i];
      });
      gbps[w].push_back(3.0 * static_cast<double>(t.array_bytes) / seconds_since(t0) * 1e-9);
    }
  }
  if (a[n / 2] != b[n / 2] + scalar * c[n / 2]) throw std::logic_error("triad mismatch");
  t.gbps_w1 = median(gbps[0]);
  t.gbps_w4 = median(gbps[1]);
  return t;
}

}  // namespace lbperf
