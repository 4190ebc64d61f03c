// shard-open-tokens: the sharded engine under open-system traffic.
// torus2d 1024x1024 (n = 2^20), Tokens diffusion-disc on a uniform
// 1000·n load, a Poisson plus a bursty stream landing thousands of
// arrival and departure events every round.  Each timed unit is one
// shard::run at K = 4 (greedy edge cut) of kRounds rounds on the 1- or
// 4-worker pool, and must equal core::run on the same input.
#include "lb/graph/generators.hpp"
#include "lb/workload/initial.hpp"
#include "substrate.hpp"
#include "workloads.hpp"

namespace lbperf {

namespace {

constexpr std::size_t kSide = 1024;
constexpr std::size_t kRounds = 8;

struct ShardOpen {
  Substrate sub;
  ShardPlan plan;
  double build_ms = 0.0;
};

lb::core::RunResult run_sharded(Substrate& s, lb::core::EngineConfig cfg, std::size_t k) {
  lb::shard::ShardConfig sc;
  sc.domains = k;
  sc.policy = lb::shard::PartitionPolicy::kGreedyEdgeCut;
  cfg.stream = s.token_stream.get();
  s.seq->reset();
  return lb::shard::run(s.disc, *s.seq, s.token_work, cfg, sc);
}

/// Graph, loads, streams, the K = 4 ownership and halo plans, and a
/// one-round warm-up of every core and sharded leg.
std::unique_ptr<ShardOpen> set_up(std::uint64_t seed, Pools& pools) {
  auto so = std::make_unique<ShardOpen>();
  Substrate& s = so->sub;
  const auto t0 = Clock::now();
  s.g = lb::graph::make_torus2d(kSide, kSide);
  so->build_ms = seconds_since(t0) * 1e3;
  const std::size_t n = s.g.num_nodes();
  lb::util::Rng rng(seed);
  s.token0 = lb::workload::uniform_random<std::int64_t>(
      n, static_cast<std::int64_t>(1000 * n), rng);
  s.real0 = lb::workload::uniform_random<double>(n, 1000.0 * static_cast<double>(n), rng);
  s.seq = lb::graph::make_static_view(s.g);
  s.token_stream = std::make_unique<MergedStream<std::int64_t>>(n, seed + 7);
  s.real_stream = std::make_unique<MergedStream<double>>(n, seed + 7);
  so->plan = build_shard_plan(s.g);
  s.warm_up(seed, pools);
  for (int w = 0; w < 2; ++w) {
    s.prepare(kTokens);
    (void)run_sharded(s, fixed_rounds_config(1, seed, pools.at(w)), 4);
  }
  return so;
}

}  // namespace

void run_shard_open_tokens(const Options& opt, Pools& pools, Outcome& out) {
  Report& rep = out.report;
  std::vector<double> setup_s;
  std::vector<double> build_ms;
  std::vector<double> partition_ms;
  std::vector<double> halo_ms;
  std::unique_ptr<ShardOpen> so;
  for (int i = 0; i < kSetupReps; ++i) {
    so.reset();
    const auto t0 = Clock::now();
    so = set_up(opt.seed, pools);
    setup_s.push_back(seconds_since(t0));
    build_ms.push_back(so->build_ms);
    partition_ms.push_back(so->plan.partition_ms);
    halo_ms.push_back(so->plan.halo_plan_ms);
  }
  Substrate& s = so->sub;
  const std::uint64_t engine_seed = opt.seed * 0x9E3779B97F4A7C15ULL + 1;
  const double n = static_cast<double>(s.g.num_nodes());

  if (!opt.trace) {
    // The reference: core::run on the same input (untimed).
    Reference ref;
    s.prepare(kTokens);
    ref.take(s, kTokens, kRounds,
             leg_result(s.execute(kTokens, fixed_rounds_config(kRounds, engine_seed, pools.w4))),
             out.gate);
    std::vector<double> wall[2];
    const auto deadline = Clock::now() + std::chrono::duration<double>(opt.seconds);
    // Rotation 0 is verified but not timed (first full-length units).
    for (int rot = 0; rot < 3 || Clock::now() < deadline; ++rot) {
      for (int k = 0; k < 2; ++k) {
        const int w = (rot + k) % 2;
        s.prepare(kTokens);
        const auto t0 = Clock::now();
        const LegResult r =
            leg_result(run_sharded(s, fixed_rounds_config(kRounds, engine_seed, pools.at(w)), 4));
        if (rot > 0) wall[w].push_back(seconds_since(t0));
        if (opt.corrupt && rot == 0 && k == 1) corrupt_output(s, kTokens);
        out.gate.check(ref.matches(s, kTokens, r),
                       std::string("shard::run K=4 at ") + Pools::label(w) +
                           " differs from core::run");
      }
    }
    rep.set("setup_s", median(setup_s));
    for (int w = 0; w < 2; ++w) {
      const std::string suffix = Pools::label(w);
      rep.set("node_rounds_per_s." + suffix, n * static_cast<double>(kRounds) / median(wall[w]));
      rep.set("cells_per_s." + suffix, 1.0 / median(wall[w]));
    }
    rep.set("peak_rss_mb", peak_rss_mb());
    return;
  }

  CoreLegs legs;
  rotate_core_legs(s, kRounds, engine_seed, opt, pools, out, legs);
  core_layer_metrics(s, legs, out.spans, rep);
  std::vector<std::uint32_t> all_units;
  for (const auto& per_b : legs.units) {
    for (const auto& u : per_b) all_units.insert(all_units.end(), u.begin(), u.end());
  }
  rep.set("workload.delta_us", median(span_ms(out.spans, kSpanDelta, all_units)) * 1e3);
  rep.set("workload.apply_us", median(span_ms(out.spans, kSpanApply, all_units)) * 1e3);
  double entries = 0.0;
  s.token_stream->reset();
  for (std::size_t r = 1; r <= kRounds; ++r) {
    const auto& d = s.token_stream->delta_at(r);
    entries += static_cast<double>(d.arrivals.size() + d.departures.size());
  }
  rep.set("workload.entries_per_round", entries / static_cast<double>(kRounds));
  rep.set("graph.build_ms", median(build_ms));
  rep.set("shard.partition_ms", median(partition_ms));
  rep.set("shard.halo_plan_ms", median(halo_ms));
  rep.set("shard.cut_edges", static_cast<double>(so->plan.map.cut_edges()));
  memory_probe(s.g, rep);
  summary_probe(s.token0, pools, 5, rep);
  lb::core::EngineConfig cfg = fixed_rounds_config(kRounds, engine_seed, pools.w1);
  cfg.stream = s.token_stream.get();
  shard_overhead_probe(s.disc, *s.seq, s.token0, cfg, pools, 2, rep, out.gate);
  check_probe(s.disc, *s.seq, s.token0, cfg, pools, 2, rep, out.gate);
  so.reset();

  // Layers this workload's legs bypass.
  campaign_probes(bypass_probe_plan(opt.seed), {0, 1}, 8, pools, rep, out.gate);
  rep.set("util.dispatch_us.w4", dispatch_us(pools.w4, 2000));
}

}  // namespace lbperf
