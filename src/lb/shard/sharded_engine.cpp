#include "lb/shard/sharded_engine.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "lb/check/invariants.hpp"
#include "lb/core/flow_program.hpp"
#include "lb/core/load.hpp"
#include "lb/core/metrics.hpp"
#include "lb/core/round_context.hpp"
#include "lb/shard/halo.hpp"
#include "lb/util/assert.hpp"
#include "lb/util/thread_pool.hpp"
#include "lb/util/timer.hpp"
#include "lb/workload/stream.hpp"

namespace lb::shard {

namespace {

/// Run fn(d) for every domain, on the pool when it has workers to give.
/// One domain per chunk: domains are the unit of independence here.
template <class Fn>
void for_each_domain(util::ThreadPool* pool, std::size_t domains, Fn&& fn) {
  if (pool == nullptr || pool->size() <= 1 || domains <= 1) {
    for (std::size_t d = 0; d < domains; ++d) fn(d);
    return;
  }
  pool->parallel_for(0, domains, 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t d = lo; d < hi; ++d) fn(d);
  });
}

/// Per-run sharded state: the ownership/halo tables (rebuilt when the
/// base topology epoch moves — mask churn never rebuilds), the comm
/// engine (lives for the whole run; totals are cumulative), and the halo
/// side of the all-edges round, which the edge-flow executor drives
/// through the core::SegmentSource hooks.
template <class T>
struct Runtime final : core::SegmentSource<T> {
  Runtime(std::size_t domains, const ShardConfig& cfg) : comm(domains), prev(domains) {
    comm.set_default_link(cfg.default_link);
    for (const LinkOverride& o : cfg.link_overrides) {
      comm.set_link(o.from, o.to, o.config);
    }
    local_pairs.resize(domains);
    remote_out.resize(domains);
    remote_in.resize(domains);
    loads_in.resize(domains * row_stride());
    flows_out.resize(domains * row_stride());
    flows_end.resize(domains * row_stride());
    flows_in.resize(domains * row_stride());
    expanded.resize(domains);
  }

  /// Returns true when the tables were rebuilt for a new base epoch, so
  /// the caller can re-validate its own per-epoch state (the invariant
  /// layer re-checks halo mirrors and domain plans exactly then).
  bool ensure(const graph::Graph& base, const ShardConfig& cfg) {
    if (map.valid_for(base, cfg.domains, cfg.policy)) return false;
    map = OwnershipMap::build(base, cfg.domains, cfg.policy);
    halo = HaloExchange::build(base, map);
    // Allocation audit (DESIGN.md §9): masked rounds expand each flow
    // inbox to its slot layout here, sized once per epoch.
    for (std::size_t d = 0; d < expanded.size(); ++d) {
      std::size_t slots = 0;
      for (const HaloLink& l : halo.plan(d).links) slots += l.recv_flow_edges.size();
      expanded[d].assign(slots, 0.0);
    }
    return true;
  }

  /// Node-load superstep, domain d's half: its boundary nodes' round-start
  /// loads, packed straight into each link's payload.  Node halos are a
  /// function of the topology alone (not of the round's mask): a dead
  /// boundary edge still carries its endpoint load, keeping the payload
  /// schedule deterministic per topology epoch.
  void send_loads(std::size_t d, const std::vector<T>& load) {
    for (const HaloLink& l : halo.plan(d).links) {
      std::byte* out = comm.stage<T>(d, l.peer, l.send_nodes.size());
      for (std::size_t i = 0; i < l.send_nodes.size(); ++i) {
        std::memcpy(out + i * sizeof(T), &load[l.send_nodes[i]], sizeof(T));
      }
    }
  }

  /// Per-domain rows of the peer tables, a cache line apart: phase A
  /// advances its flow cursors once per remote cut edge.
  std::size_t row_stride() const { return comm.domains() + 8; }

  std::size_t alive_count(const std::vector<std::uint32_t>& edges) const {
    if (!frame->masked()) return edges.size();
    return static_cast<std::size_t>(std::count_if(
        edges.begin(), edges.end(), [this](std::uint32_t k) { return frame->alive(k); }));
  }

  const core::SegmentLayout& layout() const override { return halo.segments(); }

  core::DomainHalo open_phase_a(std::size_t d) override {
    const std::size_t row = d * row_stride();
    for (const HaloLink& l : halo.plan(d).links) {
      loads_in[row + l.peer] = comm.take<T>(l.peer, d, l.recv_nodes.size());
      const std::size_t count = alive_count(l.send_flow_edges);
      flows_out[row + l.peer] = comm.stage<double>(d, l.peer, count);
      flows_end[row + l.peer] = flows_out[row + l.peer] + count * sizeof(double);
    }
    return {loads_in.data() + row, flows_out.data() + row};
  }

  void deliver_flows() override {
    // Phase A must have filled every outgoing payload exactly.
    for (std::size_t d = 0; d < map.domains(); ++d) {
      const std::size_t row = d * row_stride();
      for (const HaloLink& l : halo.plan(d).links) {
        LB_ASSERT_MSG(flows_out[row + l.peer] == flows_end[row + l.peer],
                      "sharded round packed a flow payload short or long");
      }
    }
    comm.deliver();
  }

  const std::byte* const* open_phase_b(std::size_t d) override {
    const std::size_t row = d * row_stride();
    double* slots = expanded[d].data();
    for (const HaloLink& l : halo.plan(d).links) {
      const std::byte* in = comm.take<double>(l.peer, d, alive_count(l.recv_flow_edges));
      if (frame->masked()) {
        // Dead edges ship nothing: spread the payload over the slots.
        std::size_t j = 0;
        for (std::size_t i = 0; i < l.recv_flow_edges.size(); ++i) {
          slots[i] = frame->alive(l.recv_flow_edges[i]) ? core::payload_at<double>(in, j++) : 0.0;
        }
        in = reinterpret_cast<const std::byte*>(slots);
        slots += l.recv_flow_edges.size();
      }
      flows_in[row + l.peer] = in;
    }
    return flows_in.data() + row;
  }

  OwnershipMap map;
  HaloExchange halo;
  sim::CommEngine comm;
  std::vector<sim::CommTotals> prev;           // totals at last round boundary
  const graph::TopologyFrame* frame = nullptr;  // the round being run
  // Per domain × peer (rows of row_stride()): received loads, outgoing
  // flow cursors, received flows; domain d's row is written only by d.
  std::vector<const std::byte*> loads_in;
  std::vector<std::byte*> flows_out;
  std::vector<std::byte*> flows_end;   // where each outgoing payload ends
  std::vector<const std::byte*> flows_in;
  std::vector<std::vector<double>> expanded;   // per domain: masked flow slots
  // kMatching per-round work lists (rebuilt each matching round).
  std::vector<std::vector<std::uint32_t>> local_pairs;
  std::vector<std::vector<std::uint32_t>> remote_out;  // this domain owns e.u
  std::vector<std::vector<std::uint32_t>> remote_in;   // this domain owns e.v
};

/// One kAllEdges round: the node-load superstep, then the program's
/// round on the ownership segments — phase A (outgoing cut flows, remote
/// ones from the halo and into the flow payloads), the flow superstep,
/// phase B (incoming cut flows, the fused sweep) — on the same executor
/// core::run uses.
template <class T>
core::StepStats step_all_edges(core::RoundContext<T>& ctx,
                               const core::FlowProgram<T>& program,
                               std::vector<T>& load, Runtime<T>& rt) {
  core::StepStats stats;
  stats.links = program.links;
  rt.frame = &ctx.frame();
  // The packs are O(boundary) copies: cheaper in one loop than a pool
  // dispatch.
  for (std::size_t d = 0; d < rt.map.domains(); ++d) rt.send_loads(d, load);
  rt.comm.deliver();
  program.run_segments(ctx, load, rt, stats);
  return stats;
}

/// One kMatching round (dimension exchange): a vertex-disjoint edge set,
/// so each endpoint takes exactly one ±amount update.  Convention as for
/// owned edges: owner(e.u) computes the flow; owner(e.v) ships v's load
/// forward and applies the returned flow.
template <class T>
core::StepStats step_matching(core::RoundContext<T>& ctx,
                              const core::FlowProgram<T>& program,
                              std::vector<T>& load, Runtime<T>& rt,
                              util::ThreadPool* pool) {
  const auto& edges = ctx.frame().base().edges();
  const std::size_t K = rt.map.domains();
  const auto& owner = rt.map.owners();

  core::StepStats stats;
  stats.links = program.links;

  // Round totals centrally, in matching order from round-start loads —
  // the oracle's own accumulation sequence.  The matching is vertex-
  // disjoint, so these loads are exactly what each domain computes from
  // below; this pass only fixes the summation order of the double total.
  for (const std::uint32_t k : program.matched) {
    const graph::Edge& e = edges[k];
    const double f = program.flow(k, e, static_cast<double>(load[e.u]),
                                  static_cast<double>(load[e.v]));
    if (f == 0.0) continue;
    const T amount = static_cast<T>(std::fabs(f));
    if (amount == T{}) continue;
    stats.transferred += static_cast<double>(amount);
    ++stats.active_edges;
  }

  // Per-round work lists, in matching order.  Each (sender, receiver)
  // channel sees the same matched subsequence on both sides, so the
  // per-value sends below line up FIFO with the recvs.
  for (std::size_t d = 0; d < K; ++d) {
    rt.local_pairs[d].clear();
    rt.remote_out[d].clear();
    rt.remote_in[d].clear();
  }
  for (const std::uint32_t k : program.matched) {
    const graph::Edge& e = edges[k];
    const std::uint32_t a = owner[e.u];
    const std::uint32_t b = owner[e.v];
    if (a == b) {
      rt.local_pairs[a].push_back(k);
    } else {
      rt.remote_out[a].push_back(k);
      rt.remote_in[b].push_back(k);
    }
  }

  // Phase A: v-side domains ship their endpoint loads to the owners.
  for_each_domain(pool, K, [&](std::size_t d) {
    for (const std::uint32_t k : rt.remote_in[d]) {
      const graph::Edge& e = edges[k];
      rt.comm.send(d, owner[e.u], &load[e.v], 1);
    }
  });
  rt.comm.deliver();

  // Phase B: owners compute each matched flow, apply u's side, and ship
  // the flow back (every matched cut edge ships, zero or not, keeping
  // message counts a function of the matching alone).  Local pairs apply
  // both sides at once, exactly like the oracle's direct loop.
  for_each_domain(pool, K, [&](std::size_t d) {
    for (const std::uint32_t k : rt.remote_out[d]) {
      const graph::Edge& e = edges[k];
      T lv{};
      rt.comm.recv(owner[e.v], d, &lv, 1);
      const double f = program.flow(k, e, static_cast<double>(load[e.u]),
                                    static_cast<double>(lv));
      rt.comm.send(d, owner[e.v], &f, 1);
      if (f == 0.0) continue;
      const T amount = static_cast<T>(std::fabs(f));
      if (amount == T{}) continue;
      if (f > 0.0) {
        load[e.u] -= amount;
      } else {
        load[e.u] += amount;
      }
    }
    for (const std::uint32_t k : rt.local_pairs[d]) {
      const graph::Edge& e = edges[k];
      const double f = program.flow(k, e, static_cast<double>(load[e.u]),
                                    static_cast<double>(load[e.v]));
      if (f == 0.0) continue;
      const T amount = static_cast<T>(std::fabs(f));
      if (amount == T{}) continue;
      if (f > 0.0) {
        load[e.u] -= amount;
        load[e.v] += amount;
      } else {
        load[e.v] -= amount;
        load[e.u] += amount;
      }
    }
  });
  rt.comm.deliver();

  // Phase C: v-side domains apply the received flows.
  for_each_domain(pool, K, [&](std::size_t d) {
    for (const std::uint32_t k : rt.remote_in[d]) {
      const graph::Edge& e = edges[k];
      double f = 0.0;
      rt.comm.recv(owner[e.u], d, &f, 1);
      if (f == 0.0) continue;
      const T amount = static_cast<T>(std::fabs(f));
      if (amount == T{}) continue;
      if (f > 0.0) {
        load[e.v] += amount;
      } else {
        load[e.v] -= amount;
      }
    }
  });
  return stats;
}

}  // namespace

template <class T>
core::RunResult run(core::Balancer<T>& balancer, graph::GraphSequence& seq,
                    std::vector<T>& load, const core::EngineConfig& config,
                    const ShardConfig& shard) {
  using core::LoadSummary;
  using core::MetricsPath;
  using core::RunResult;
  using core::SummaryMode;

  LB_ASSERT_MSG(load.size() == seq.num_nodes(), "load vector does not match network");
  LB_ASSERT_MSG(shard.domains >= 1, "need at least one ownership domain");
  LB_ASSERT_MSG(shard.domains <= seq.num_nodes(), "more domains than nodes");
  util::Rng rng(config.seed);
  const util::Stopwatch run_watch;

  balancer.on_run_begin();

  // Open-system traffic (DESIGN.md §11): same retyping and replay as
  // core::run — the stream is re-derived per round from the seed chain,
  // so shared-memory and sharded runs see identical deltas.
  workload::Stream<T>* stream = nullptr;
  if (config.stream != nullptr) {
    stream = dynamic_cast<workload::Stream<T>*>(config.stream);
    LB_ASSERT_MSG(stream != nullptr,
                  "EngineConfig::stream scalar type does not match the run");
    stream->reset();
  }

  const bool fused = config.metrics == MetricsPath::kFusedParallel;
  util::ThreadPool* pool =
      config.pool != nullptr ? config.pool : &util::ThreadPool::global();

  Runtime<T> rt(shard.domains, shard);
  core::RunArena<T> arena;
  core::FlowProgram<T> program;

  // Invariant checking (DESIGN.md §8): the sharded engine carries the
  // full catalog — conservation, halo mirrors, domain segments, flow
  // antisymmetry, and comm accounting.  Checks only read engine state.
  const bool checking = config.check_invariants || check::env_enabled();
  check::ConservationBaseline<T> baseline;
  if (checking) baseline = check::conservation_baseline(load);
  const auto snapshot_totals = [&rt, &shard] {
    std::vector<sim::CommTotals> totals(shard.domains);
    for (std::size_t d = 0; d < shard.domains; ++d) totals[d] = rt.comm.totals(d);
    return totals;
  };

  RunResult result;
  result.domains = shard.domains;
  result.open_system = stream != nullptr;

  const auto fill_comm = [&](RunResult& r) {
    r.domain_comm.resize(shard.domains);
    for (std::size_t d = 0; d < shard.domains; ++d) {
      const sim::CommTotals& t = rt.comm.totals(d);
      r.domain_comm[d] = core::DomainCommStats{t.messages, t.boundary_bytes, t.wait_us};
      r.comm.messages += t.messages;
      r.comm.boundary_bytes += t.boundary_bytes;
      r.comm.halo_wait_us += t.wait_us;
    }
  };

  // Everything below mirrors core::run() round for round — the bit-
  // identity contract is "same branches, same reductions, same order",
  // with only the step body swapped for the domain protocol.
  const LoadSummary<T> initial =
      fused ? core::summarize_parallel(load, pool) : core::summarize(load);
  double run_average = initial.average;
  T running_total = initial.total;
  T net_stream{};
  result.initial_potential = initial.potential;

  if (stream == nullptr && result.initial_potential <= config.target_potential) {
    result.reached_target = true;
    result.final_potential = result.initial_potential;
    result.final_discrepancy = initial.discrepancy;
    fill_comm(result);
    result.total_seconds = run_watch.elapsed_seconds();
    return result;
  }

  if (config.record_trace) {
    result.trace.reserve(std::min<std::size_t>(config.max_rounds, 4096));
    result.trace.set_open_system(stream != nullptr);
  }
  const SummaryMode mode = (config.record_trace || stream != nullptr)
                               ? SummaryMode::kFull
                               : SummaryMode::kPotentialOnly;

  core::metrics::SteadyState steady;

  const auto finish = [&](RunResult& r) {
    if (fused && !config.record_trace && stream == nullptr) {
      r.final_discrepancy =
          core::summarize_deterministic(load, run_average, pool,
                                        SummaryMode::kExtremaOnly,
                                        arena.summary_parts())
              .discrepancy;
    }
    if (stream != nullptr) r.steady = steady.finalize();
    fill_comm(r);
    r.total_seconds = run_watch.elapsed_seconds();
  };

  std::size_t consecutive_idle = 0;
  std::uint64_t base_epoch = 0;
  std::uint64_t mask_epoch = 0;
  for (std::size_t round = 1; round <= config.max_rounds; ++round) {
    const graph::TopologyFrame& frame = seq.frame_at(round);
    if (frame.base_revision() != base_epoch || frame.mask_revision() != mask_epoch) {
      balancer.on_topology_changed();
      base_epoch = frame.base_revision();
      mask_epoch = frame.mask_revision();
      if (checking && frame.mask() != nullptr) {
        check::check_mask(*frame.mask());
      }
    }
    const bool rebuilt = rt.ensure(frame.base(), shard);
    if (checking && rebuilt) {
      // Fresh ownership/halo tables: prove the routing invariants once
      // per base epoch, before any round executes against them.
      check::check_halo_mirrors(rt.halo);
      check::check_partition_plan(rt.halo.segments().segments, frame.base(),
                                  /*chunk_aligned=*/false);
      for (std::size_t d = 0; d < shard.domains; ++d) {
        check::check_domain_plan(frame.base(), rt.map.owners(), d, rt.halo);
      }
    }

    // Stream delta, owner domains only: each domain applies exactly its
    // owned slice of the (sorted, duplicate-free) delta, which composes
    // to one apply_stream_delta over the whole vector — nodes are
    // disjoint across domains and the arithmetic is per-node.  The
    // ledger totals come from the central sequential tally *before* the
    // apply, the same pass core::run uses, so the running baseline and
    // the conservation ledger are bit-identical to the oracle.
    workload::AppliedStream<T> applied{};
    bool delta_applied = false;
    if (stream != nullptr) {
      const workload::StreamDelta<T>& delta = stream->delta_at(round);
      if (!delta.empty()) {
        applied = workload::tally_stream_delta(delta, load);
        const auto& owner = rt.map.owners();
        for_each_domain(pool, shard.domains, [&](std::size_t d) {
          workload::apply_stream_delta_owned(delta, load, owner,
                                             static_cast<std::uint32_t>(d));
        });
        arena.invalidate_snapshot();  // blocked-round load cache is stale
        delta_applied = true;
        const T net = applied.net();
        if (net != T{}) {
          running_total += net;
          run_average = static_cast<double>(running_total) /
                        static_cast<double>(load.size());
        }
        net_stream += net;
        result.stream_arrivals += static_cast<double>(applied.arrivals);
        result.stream_departures += static_cast<double>(applied.departures);
      }
    }

    core::RoundContext<T> ctx(frame, rng, pool, arena);
    ctx.set_spectral_cache(config.spectral_cache);
    if (fused) ctx.request_summary(mode, run_average);

    util::Stopwatch watch;
    program.reset();
    core::StepStats stats;
    bool planned = balancer.plan_round(ctx, program);
    if (planned) {
      LB_ASSERT_MSG(program.flow != nullptr, "planned round without a flow function");
      const bool matching = program.support == core::FlowProgram<T>::Support::kMatching;
      LB_ASSERT_MSG(matching || program.run_segments != nullptr,
                    "planned all-edges round without a segment round");
      std::vector<sim::CommTotals> before;
      std::vector<check::RoundCommExpectation> expected;
      if (checking) {
        // Round-start loads are what the domains will exchange, so the
        // antisymmetry probe sees exactly the values the protocol uses.
        check::check_flow_antisymmetry(program, frame, load, round);
        before = snapshot_totals();
        expected = matching
                       ? check::expected_matching_round_comm<T>(
                             program.matched, frame.base().edges(),
                             rt.map.owners(), shard.domains)
                       : check::expected_all_edges_round_comm<T>(rt.halo.plans(), frame);
      }
      if (matching) {
        stats = step_matching(ctx, program, load, rt, pool);
        // The matching kernel mutates `load` outside the edge-flow
        // executor, so its snapshot cache is stale.
        arena.invalidate_snapshot();
      } else {
        stats = step_all_edges(ctx, program, load, rt);
      }
      if (checking) {
        const std::vector<sim::CommTotals> after = snapshot_totals();
        check::check_comm_accounting(expected, before, after, round);
      }
      ++result.sharded_rounds;
    } else {
      // Non-distributable round: shared-memory step() inside the sharded
      // loop (zero comm; not counted in sharded_rounds).
      stats = balancer.step(ctx, load);
    }
    const double step_us = watch.elapsed_seconds() * 1e6;
    ++result.rounds;

    watch.reset();
    LoadSummary<T> summary;
    if (!fused) {
      summary = core::summarize(load);
    } else if (ctx.has_summary()) {
      summary = ctx.summary();
    } else {
      summary = core::summarize_deterministic(load, run_average, pool, mode,
                                              arena.summary_parts());
    }
    const double metrics_us = watch.elapsed_seconds() * 1e6;
    result.step_seconds += step_us * 1e-6;
    result.metrics_seconds += metrics_us * 1e-6;

    // A NaN or infinite load never balances away; the run stops after
    // recording this round instead of burning the round budget.
    const bool finite = std::isfinite(summary.potential);
    if (checking && finite) {
      check::check_conservation(baseline, load, round, stats.links, "shard",
                                net_stream);
    }

    if (stream != nullptr) {
      steady.observe(round, summary.potential, summary.discrepancy,
                     static_cast<double>(summary.max),
                     static_cast<double>(applied.arrivals),
                     static_cast<double>(applied.departures));
    }

    if (config.record_trace) {
      core::RoundRecord rec{round, summary.potential, summary.discrepancy,
                            stats.transferred, stats.active_edges, step_us,
                            metrics_us};
      for (std::size_t d = 0; d < shard.domains; ++d) {
        const sim::CommTotals& t = rt.comm.totals(d);
        rec.messages += t.messages - rt.prev[d].messages;
        rec.boundary_bytes += t.boundary_bytes - rt.prev[d].boundary_bytes;
        rec.halo_wait_us += t.wait_us - rt.prev[d].wait_us;
        rt.prev[d] = t;
      }
      if (stream != nullptr) {
        rec.arrivals = static_cast<double>(applied.arrivals);
        rec.departures = static_cast<double>(applied.departures);
        rec.net_load = static_cast<double>(net_stream);
      }
      result.trace.add(rec);
      result.final_discrepancy = summary.discrepancy;
    } else if (!fused || stream != nullptr) {
      result.final_discrepancy = summary.discrepancy;
    }
    result.final_potential = summary.potential;

    if (!finite) {
      result.non_finite = true;
      finish(result);
      return result;
    }
    if (summary.potential <= config.target_potential) {
      result.reached_target = true;
      finish(result);
      return result;
    }
    if (stats.transferred == 0.0 && !delta_applied) {
      ++consecutive_idle;
      if (config.stall_rounds > 0 && consecutive_idle >= config.stall_rounds) {
        result.stalled = true;
        finish(result);
        return result;
      }
    } else {
      consecutive_idle = 0;
    }
  }
  finish(result);
  return result;
}

template <class T>
core::RunResult run_static(core::Balancer<T>& balancer, const graph::Graph& g,
                           std::vector<T>& load, const core::EngineConfig& config,
                           const ShardConfig& shard) {
  auto seq = graph::make_static_sequence(g);
  return run(balancer, *seq, load, config, shard);
}

#define LB_INSTANTIATE(T)                                                       \
  template core::RunResult run<T>(core::Balancer<T>&, graph::GraphSequence&,    \
                                  std::vector<T>&, const core::EngineConfig&,   \
                                  const ShardConfig&);                          \
  template core::RunResult run_static<T>(core::Balancer<T>&, const graph::Graph&, \
                                         std::vector<T>&, const core::EngineConfig&, \
                                         const ShardConfig&);

LB_INSTANTIATE(double)
LB_INSTANTIATE(std::int64_t)
#undef LB_INSTANTIATE

}  // namespace lb::shard
