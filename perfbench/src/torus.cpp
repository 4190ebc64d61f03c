// torus-2m-closed: the headline round.  torus2d 2048x1024 (n = 2^21),
// closed system, balancers rotating diffusion-cont (Real, bimodal
// 1000·n), sos β = 1.5 (Real, same load) and diffusion-disc (Tokens,
// uniform 1000·n).  Each timed unit is one core::run of kRounds rounds
// on the 1- or 4-worker pool; the w1 and w4 legs of every balancer
// alternate inside each rotation.
#include "lb/graph/generators.hpp"
#include "lb/workload/initial.hpp"
#include "substrate.hpp"
#include "workloads.hpp"

namespace lbperf {

namespace {

constexpr std::size_t kWidth = 2048;
constexpr std::size_t kHeight = 1024;
constexpr std::size_t kRounds = 6;

/// Everything a user pays for once: graph, initial loads, arenas, and a
/// one-round warm-up of every (balancer, pool) leg.
std::unique_ptr<Substrate> set_up(std::uint64_t seed, Pools& pools, double& build_ms) {
  auto s = std::make_unique<Substrate>();
  const auto t0 = Clock::now();
  s->g = lb::graph::make_torus2d(kWidth, kHeight);
  build_ms = seconds_since(t0) * 1e3;
  const std::size_t n = s->g.num_nodes();
  lb::util::Rng rng(seed);
  s->real0 = lb::workload::bimodal<double>(n, 1000.0 * static_cast<double>(n), rng);
  s->token0 = lb::workload::uniform_random<std::int64_t>(
      n, static_cast<std::int64_t>(1000 * n), rng);
  s->seq = lb::graph::make_static_view(s->g);
  s->warm_up(seed, pools);
  return s;
}

}  // namespace

void run_torus_2m_closed(const Options& opt, Pools& pools, Outcome& out) {
  Report& rep = out.report;
  std::vector<double> setup_s;
  std::vector<double> build_ms;
  std::unique_ptr<Substrate> s;
  for (int i = 0; i < kSetupReps; ++i) {
    s.reset();
    double graph_ms = 0.0;
    const auto t0 = Clock::now();
    s = set_up(opt.seed, pools, graph_ms);
    setup_s.push_back(seconds_since(t0));
    build_ms.push_back(graph_ms);
  }

  CoreLegs legs;
  const std::uint64_t engine_seed = opt.seed * 0x9E3779B97F4A7C15ULL + 1;
  rotate_core_legs(*s, kRounds, engine_seed, opt, pools, out, legs);

  const double n = static_cast<double>(s->g.num_nodes());
  if (!opt.trace) {
    rep.set("setup_s", median(setup_s));
    for (int w = 0; w < 2; ++w) {
      // One rotation: every balancer once, at its median unit time.
      double rotation_s = 0.0;
      for (int b = 0; b < kBalancers; ++b) {
        rotation_s += median(legs.round_ms[b][w]) * 1e-3 * static_cast<double>(kRounds);
      }
      const std::string suffix = Pools::label(w);
      rep.set("node_rounds_per_s." + suffix,
              kBalancers * n * static_cast<double>(kRounds) / rotation_s);
      rep.set("cells_per_s." + suffix, kBalancers / rotation_s);
    }
    rep.set("peak_rss_mb", peak_rss_mb());
    return;
  }

  core_layer_metrics(*s, legs, out.spans, rep);
  rep.set("graph.build_ms", median(build_ms));
  memory_probe(s->g, rep);
  summary_probe(s->real0, pools, 5, rep);

  // Layers this workload's legs bypass, probed on its own graph and load.
  stream_probe(s->real0, opt.seed, 16, rep);
  const ShardPlan plan = build_shard_plan(s->g);
  rep.set("shard.partition_ms", plan.partition_ms);
  rep.set("shard.halo_plan_ms", plan.halo_plan_ms);
  rep.set("shard.cut_edges", static_cast<double>(plan.map.cut_edges()));
  const lb::core::EngineConfig cfg = fixed_rounds_config(kRounds, engine_seed, pools.w1);
  shard_overhead_probe(s->disc, *s->seq, s->token0, cfg, pools, 2, rep, out.gate);
  check_probe(s->cont, *s->seq, s->real0, cfg, pools, 2, rep, out.gate);
  s.reset();
  campaign_probes(bypass_probe_plan(opt.seed), {0, 1}, 8, pools, rep, out.gate);
  rep.set("util.dispatch_us.w4", dispatch_us(pools.w4, 2000));
}

}  // namespace lbperf
