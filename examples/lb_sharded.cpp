// Sharded-execution tour: the K-domain partitioned engine (lb/shard/).
//
// The shared-memory engine computes every round centrally; the sharded
// engine splits node ownership across K domains, runs each domain's half
// of the round independently, and reconciles boundary state by explicit
// halo messages at a deterministic barrier.  The headline contract is
// that nothing about the trajectory changes — bit-identical RunResults —
// while the comm bill (messages, boundary bytes, modeled halo waits)
// becomes observable per domain.
//
// Three acts:
//   1. ownership — how the greedy edge-cut partitioner splits the torus
//      and how much load each domain starts with;
//   2. execution — the sharded run versus the shared-memory oracle,
//      with per-domain boundary traffic;
//   3. straggler — the same run with one slow link (latency override):
//      the modeled halo-wait pinpoints the domain stuck behind it.
#include <cstdio>
#include <iostream>
#include <vector>

#include "lb/core/diffusion.hpp"
#include "lb/core/engine.hpp"
#include "lb/core/load.hpp"
#include "lb/graph/generators.hpp"
#include "lb/shard/halo.hpp"
#include "lb/shard/ownership.hpp"
#include "lb/shard/sharded_engine.hpp"
#include "lb/util/options.hpp"
#include "lb/util/table.hpp"
#include "lb/workload/initial.hpp"

int main(int argc, char** argv) {
  lb::util::Options opts(
      "lb_sharded: K-domain partitioned execution with halo exchange, "
      "bit-identical to the shared-memory engine");
  opts.add_int("side", 16, "torus side (side x side nodes)")
      .add_int("domains", 4, "ownership domains K")
      .add_int("rounds", 400, "round budget")
      .add_int("seed", 7, "engine RNG seed");
  opts.parse(argc, argv);

  const std::size_t side = static_cast<std::size_t>(opts.get_int("side"));
  const std::size_t domains = static_cast<std::size_t>(opts.get_int("domains"));
  const std::size_t rounds = static_cast<std::size_t>(opts.get_int("rounds"));
  const std::uint64_t seed = static_cast<std::uint64_t>(opts.get_int("seed"));

  const auto torus = lb::graph::make_torus2d(side, side);
  const auto load0 = lb::workload::two_spikes<double>(
      torus.num_nodes(), 1000.0 * static_cast<double>(torus.num_nodes()));

  // --- Act 1: ownership. -------------------------------------------------
  const auto map = lb::shard::OwnershipMap::build(
      torus, domains, lb::shard::PartitionPolicy::kGreedyEdgeCut);
  const auto halo = lb::shard::HaloExchange::build(torus, map);
  std::printf("topology  : %s (%zu nodes, %zu edges)\n", torus.name().c_str(),
              torus.num_nodes(), torus.num_edges());
  std::printf("partition : K=%zu greedy edge-cut, %zu cut edges (%.1f%% of "
              "all edges)\n\n",
              domains, map.cut_edges(),
              100.0 * static_cast<double>(map.cut_edges()) /
                  static_cast<double>(torus.num_edges()));

  lb::util::Table own({"domain", "nodes", "owned edges", "halo links",
                       "initial load"});
  for (std::size_t d = 0; d < domains; ++d) {
    double initial = 0.0;
    for (const lb::graph::NodeId u : map.nodes(d)) initial += load0[u];
    own.row()
        .add(static_cast<std::int64_t>(d))
        .add(static_cast<std::int64_t>(map.nodes(d).size()))
        .add(static_cast<std::int64_t>(halo.owned_edges(d)))
        .add(static_cast<std::int64_t>(halo.plan(d).links.size()))
        .add(initial, 1);
  }
  own.print(std::cout, "Act 1: ownership map");

  // --- Act 2: sharded run vs the shared-memory oracle. -------------------
  lb::core::EngineConfig cfg;
  cfg.max_rounds = rounds;
  cfg.target_potential = 1e-6 * lb::core::potential(load0);
  cfg.seed = seed;

  auto oracle_alg = lb::core::make_diffusion_continuous();
  std::vector<double> oracle_load = load0;
  const auto oracle = lb::core::run_static(*oracle_alg, torus, oracle_load, cfg);

  lb::shard::ShardConfig shard;
  shard.domains = domains;
  auto alg = lb::core::make_diffusion_continuous();
  std::vector<double> load = load0;
  const auto run = lb::shard::run_static(*alg, torus, load, cfg, shard);

  const bool identical = run.rounds == oracle.rounds &&
                         run.final_potential == oracle.final_potential &&
                         load == oracle_load;
  std::printf("\nrounds    : %zu (target %s)\n", run.rounds,
              run.reached_target ? "reached" : "not reached");
  std::printf("identity  : sharded run %s the shared-memory oracle\n",
              identical ? "bit-identical to" : "DIVERGED from");
  std::printf("comm bill : %llu messages, %llu boundary bytes over %zu "
              "sharded rounds\n\n",
              static_cast<unsigned long long>(run.comm.messages),
              static_cast<unsigned long long>(run.comm.boundary_bytes),
              run.sharded_rounds);

  lb::util::Table traffic({"domain", "messages", "boundary bytes",
                           "final load"});
  for (std::size_t d = 0; d < domains; ++d) {
    double final_load = 0.0;
    for (const lb::graph::NodeId u : map.nodes(d)) final_load += load[u];
    traffic.row()
        .add(static_cast<std::int64_t>(d))
        .add(static_cast<std::int64_t>(run.domain_comm[d].messages))
        .add(static_cast<std::int64_t>(run.domain_comm[d].boundary_bytes))
        .add(final_load, 1);
  }
  traffic.print(std::cout, "Act 2: per-domain boundary traffic");

  // --- Act 3: one slow link. ---------------------------------------------
  // Every link ships at 1 GB/s with 1 µs latency, except 0 -> 1, which
  // models a degraded cable.  The trajectory cannot change (the cost
  // model never feeds back into the algorithm); only domain 1's modeled
  // halo-wait balloons.
  lb::shard::ShardConfig slow = shard;
  slow.default_link = {1.0, 0.001};
  slow.link_overrides.push_back({0, 1, {250.0, 0.5}});
  auto slow_alg = lb::core::make_diffusion_continuous();
  std::vector<double> slow_load = load0;
  const auto straggler = lb::shard::run_static(*slow_alg, torus, slow_load, cfg, slow);

  std::printf("\nstraggler : link 0->1 degraded to 250us latency + 0.5us/byte\n");
  lb::util::Table waits({"domain", "halo wait (us)", "wait share"});
  double total_wait = 0.0;
  for (std::size_t d = 0; d < domains; ++d) {
    total_wait += straggler.domain_comm[d].halo_wait_us;
  }
  for (std::size_t d = 0; d < domains; ++d) {
    waits.row()
        .add(static_cast<std::int64_t>(d))
        .add(straggler.domain_comm[d].halo_wait_us, 1)
        .add(total_wait > 0.0
                 ? straggler.domain_comm[d].halo_wait_us / total_wait
                 : 0.0,
             3);
  }
  waits.print(std::cout, "Act 3: modeled halo waits under one slow link");

  const bool slow_identical = slow_load == load &&
                              straggler.final_potential == run.final_potential;
  std::printf("trajectory: %s under the degraded link (cost model is "
              "observability only)\n",
              slow_identical ? "unchanged" : "CHANGED");

  return identical && slow_identical ? 0 : 1;
}
