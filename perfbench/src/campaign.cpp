// campaign-dynamic: many small cells to ε.  CampaignRunner in kCached
// mode over eight base graphs (torus2d, hypercube, cycle, regular) of 192
// to 2048 nodes, static / churn / partition / markov scenarios,
// diffusion, auto-β SOS, dimension exchange and random partner, both
// scalars, two replicates.  Each timed unit is one whole
// CampaignRunner::run(plan) — a fresh artifact cache per pass, as a
// user's campaign gets — on the 1- or 4-worker pool, alternating.
#include <algorithm>
#include <stdexcept>

#include "lb/exp/campaign.hpp"
#include "lb/graph/generators.hpp"
#include "lb/workload/initial.hpp"
#include "substrate.hpp"
#include "workloads.hpp"

namespace lbperf {

namespace {

using lb::exp::BalancerKind;

constexpr std::size_t kTracedBase = 1;  // torus2d 1024 in campaign_plan
constexpr std::size_t kTracedRounds = 100;
constexpr double kTracedSeconds = 3.0;

/// A cell ends by reaching ε, stalling, or spending its round budget.
bool cells_terminated(const lb::exp::ExperimentPlan& plan, const lb::exp::CampaignReport& r) {
  for (const auto& c : r.cells) {
    if (!c.run.reached_target && !c.run.stalled && c.run.rounds != plan.engine.max_rounds) {
      return false;
    }
  }
  return true;
}

}  // namespace

lb::exp::ExperimentPlan campaign_plan(std::uint64_t seed) {
  lb::exp::ExperimentPlan plan;
  // Cells are sharded by graph index mod the pool size; this order pairs
  // the costliest bases with the cheapest so the four w4 shards carry
  // similar work (shard k runs bases k and k + 4).
  plan.graphs = {{"torus2d", 1600}, {"torus2d", 1024}, {"regular", 256}, {"torus2d", 1296},
                 {"hypercube", 1024}, {"cycle", 256}, {"cycle", 192}, {"hypercube", 2048}};
  plan.scenarios = {lb::exp::static_scenario(), lb::exp::churn_scenario(0.8, 0.05),
                    lb::exp::partition_scenario(8), lb::exp::markov_scenario(0.05, 0.5)};
  plan.workloads = {{"spike", 1000.0}};
  plan.balancers = {{BalancerKind::kDiffusion, 0.0},
                    {BalancerKind::kSos, 0.0},
                    {BalancerKind::kDimensionExchange, 0.0},
                    {BalancerKind::kRandomPartner, 0.0}};
  // The bases stay fixed (master seed 42) so every run balances the same
  // graphs; the run seed salts the two replicates, which draw the initial
  // loads' placement, the failure patterns, the matchings and the engine
  // RNG of every cell.
  plan.seeds = {2 * seed + 1, 2 * seed + 2};
  plan.engine.max_rounds = 120;
  plan.engine.record_trace = false;
  plan.epsilon = 1e-4;
  plan.master_seed = 42;
  return plan;
}

lb::exp::ExperimentPlan bypass_probe_plan(std::uint64_t seed) {
  lb::exp::ExperimentPlan plan;
  plan.graphs = {{"torus2d", 1024}, {"hypercube", 1024}};
  plan.scenarios = {lb::exp::static_scenario(), lb::exp::churn_scenario(0.8, 0.05)};
  plan.workloads = {{"spike", 1000.0}};
  plan.balancers = {{BalancerKind::kDiffusion, 0.0}, {BalancerKind::kDimensionExchange, 0.0}};
  plan.seeds.clear();
  for (std::uint64_t s = 1; s <= 13; ++s) plan.seeds.push_back(s);  // 208 cells
  plan.engine.max_rounds = 300;
  plan.engine.record_trace = false;
  plan.master_seed = seed;
  return plan;
}

void run_campaign_dynamic(const Options& opt, Pools& pools, Outcome& out) {
  Report& rep = out.report;
  const lb::exp::ExperimentPlan plan = campaign_plan(opt.seed);
  lb::exp::CampaignRunner runner1({lb::exp::ArtifactMode::kCached, &pools.w1});
  lb::exp::CampaignRunner runner4({lb::exp::ArtifactMode::kCached, &pools.w4});

  // Set-up: expand the plan and run one warm-up pass at w4.
  std::vector<double> setup_s;
  for (int i = 0; i < kSetupReps; ++i) {
    const auto t0 = Clock::now();
    const std::size_t cells = plan.cells().size();
    (void)runner4.run(plan);
    setup_s.push_back(seconds_since(t0));
    if (cells == 0) throw std::logic_error("empty campaign plan");
  }
  // The bases as the campaign builds them, for node counts and the
  // traced run (outside the set-up: the passes build their own).
  std::vector<lb::graph::Graph> bases;
  double build_ms = 0.0;
  for (std::size_t gi = 0; gi < plan.graphs.size(); ++gi) {
    lb::util::Rng rng(lb::exp::graph_build_seed(plan, gi));
    const auto t0 = Clock::now();
    bases.push_back(lb::graph::make_named(plan.graphs[gi].family, plan.graphs[gi].n, rng));
    build_ms += seconds_since(t0) * 1e3;
  }

  if (!opt.trace) {
    std::vector<LegResult> ref;
    double node_rounds = 0.0;
    std::size_t cells = 0;
    std::vector<double> wall[2];
    const auto deadline = Clock::now() + std::chrono::duration<double>(opt.seconds);
    for (int rot = 0; rot < 2 || Clock::now() < deadline; ++rot) {
      for (int k = 0; k < 2; ++k) {
        const int w = (rot + k) % 2;
        const auto t0 = Clock::now();
        const lb::exp::CampaignReport r = (w == 0 ? runner1 : runner4).run(plan);
        wall[w].push_back(seconds_since(t0));
        std::vector<LegResult> got = cell_results(r);
        if (opt.corrupt && rot == 0 && k == 1) got.back().final_potential += 1.0;
        if (ref.empty()) {
          // The first pass: every cell terminated by a rule, and one
          // seed-chosen cell equals the fresh-everything oracle.
          const std::size_t pick = opt.seed % r.cells.size();
          const lb::exp::CellResult fresh =
              lb::exp::CampaignRunner::run_cell_fresh(plan, r.cells[pick].cell, &pools.w1);
          out.gate.check(cells_terminated(plan, r) &&
                             same_result(leg_result(fresh.run), got[pick]),
                         "campaign reference pass");
          ref = got;
          cells = r.cells.size();
          for (const auto& c : r.cells) {
            node_rounds += static_cast<double>(bases[c.cell.graph].num_nodes() * c.run.rounds);
          }
        } else {
          out.gate.check(reports_equal(ref, got),
                         std::string("campaign pass at ") + Pools::label(w) +
                             " differs from the reference");
        }
      }
    }
    rep.set("setup_s", median(setup_s));
    for (int w = 0; w < 2; ++w) {
      const std::string suffix = Pools::label(w);
      rep.set("node_rounds_per_s." + suffix, node_rounds / median(wall[w]));
      rep.set("cells_per_s." + suffix, static_cast<double>(cells) / median(wall[w]));
    }
    rep.set("peak_rss_mb", peak_rss_mb());
    return;
  }

  // Traced run: the balancer rotation re-driven on a churn sequence over
  // the torus2d 1024 base, then the layer probes.
  Substrate s;
  s.g = std::move(bases[kTracedBase]);
  rep.set("graph.build_ms", build_ms);
  const std::size_t n = s.g.num_nodes();
  s.seq = lb::graph::make_churn_sequence(s.g, 0.8, 0.05, opt.seed);
  s.real0 = lb::workload::spike<double>(n, 1000.0 * static_cast<double>(n));
  s.token0 = lb::workload::spike<std::int64_t>(n, static_cast<std::int64_t>(1000 * n));
  s.warm_up(opt.seed, pools);
  Options traced_opt = opt;
  traced_opt.seconds = std::min(opt.seconds, kTracedSeconds);
  CoreLegs legs;
  const std::uint64_t engine_seed = opt.seed * 0x9E3779B97F4A7C15ULL + 1;
  rotate_core_legs(s, kTracedRounds, engine_seed, traced_opt, pools, out, legs);
  core_layer_metrics(s, legs, out.spans, rep);
  memory_probe(s.g, rep);
  summary_probe(s.real0, pools, 15, rep);

  // Layers this workload's legs bypass, probed on the traced base.
  stream_probe(s.real0, opt.seed, 64, rep);
  const ShardPlan shard_plan = build_shard_plan(s.g);
  rep.set("shard.partition_ms", shard_plan.partition_ms);
  rep.set("shard.halo_plan_ms", shard_plan.halo_plan_ms);
  rep.set("shard.cut_edges", static_cast<double>(shard_plan.map.cut_edges()));
  const lb::core::EngineConfig cfg = fixed_rounds_config(kTracedRounds, engine_seed, pools.w1);
  shard_overhead_probe(s.disc, *s.seq, s.token0, cfg, pools, 3, rep, out.gate);
  check_probe(s.cont, *s.seq, s.real0, cfg, pools, 3, rep, out.gate);

  campaign_probes(plan, {1, 4}, 16, pools, rep, out.gate);
  rep.set("util.dispatch_us.w4", dispatch_us(pools.w4, 2000));
}

}  // namespace lbperf
