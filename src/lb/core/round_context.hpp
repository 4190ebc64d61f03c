// RoundContext: everything one balancing round executes against.
//
// Before this existed, Balancer::step(g, load, rng) gave algorithms no
// access to the thread pool or reusable scratch, so each balancer
// re-plumbed its own (flow buffers, snapshots, CSR ledgers).  The context
// bundles the per-round view (graph + rng + pool) with the per-run
// resources (scratch arena + shared flow ledger keyed on the graph's
// topology epoch), and carries the engine's fused-summary request so the
// metrics sweep can ride inside the apply phase instead of being a second
// sequential O(n) pass.  See DESIGN.md §3 for the contract.
//
// Ownership model:
//   * RunArena<T> lives for a whole run (the engine owns one per run; the
//     deprecated legacy step() shim owns one per balancer).  Its buffers
//     are sized lazily by whoever uses them and reused across rounds.
//   * RoundContext<T> is a cheap per-round view: references into the
//     arena plus the current graph/rng/pool and the summary slot.  It is
//     constructed fresh each round (dynamic sequences swap the graph).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <vector>

#include "lb/core/flow_ledger.hpp"
#include "lb/core/flow_program.hpp"
#include "lb/core/load.hpp"
#include "lb/core/metrics.hpp"
#include "lb/core/partition_plan.hpp"
#include "lb/graph/edge_mask.hpp"
#include "lb/graph/graph.hpp"
#include "lb/util/assert.hpp"
#include "lb/util/rng.hpp"
#include "lb/util/thread_pool.hpp"

namespace lb::linalg {
class SpectralCache;
}

namespace lb::core {

/// Per-run reusable state shared by every round: scratch buffers sized
/// lazily by the balancers that use them, plus the flow-ledger CSR view,
/// which re-keys itself on graph::Graph::revision() (the topology epoch)
/// so dynamic sequences rebuild it exactly when the topology changes.
///
/// An arena may also outlive a run: Engine::run's caller-owned-arena
/// overload lets back-to-back runs share one, in which case the CSR
/// (revision-keyed) survives across runs on the same base — the campaign
/// layer's per-cell amortization (lb/exp/, DESIGN.md §6).  That reuse is
/// sound because nothing here is trajectory state: every buffer is
/// (re)assigned before it is read within a round.
template <class T>
class RunArena {
 public:
  /// Per-edge signed flow buffer (positive moves load u -> v), for the
  /// kEdgeSweep oracle paths only: the edge-flow executor, and with it
  /// the sharded engine, keeps no per-edge flow buffer.
  std::vector<double>& flows() { return flows_; }
  /// Per-node T scratch (round-start snapshots, per-node deltas).
  /// Handing the buffer out invalidates the edge-flow executor's
  /// cross-round snapshot cache: any caller of this accessor may clobber it.
  std::vector<T>& node_scratch() {
    snapshot_ready_ = false;
    return node_scratch_;
  }
  /// Per-node flag scratch (e.g. async activation sets).
  std::vector<std::uint8_t>& node_flags() { return node_flags_; }
  /// Per-chunk partial buffer for the deterministic summary reductions
  /// (fused_sweep_with_summary's scratch overload) — kept here so
  /// steady-state rounds perform zero transient allocations.
  std::vector<SummaryPartial<T>>& summary_parts() { return summary_parts_; }
  /// Per-chunk StepStats partials (the source-chunk fold, DESIGN.md §4).
  std::vector<StepStats>& flow_totals() { return flow_totals_; }
  /// Flow slots of the partitioned round's cut edges (one per cut edge
  /// of the pool layout or of the ownership segments).
  std::vector<double>& cut_flows() { return cut_flows_; }
  /// The shared CSR incident-edge view (matching rounds); callers go
  /// through RoundContext::ledger(), which ensure()s it against the
  /// round's graph.
  FlowLedger& ledger() { return ledger_; }

  /// The partitioned round's plan for `parts` partitions over `base`,
  /// (re)built iff that part count's plan was built for another base
  /// revision.  One plan is kept per part count, so runs that alternate
  /// pools on one arena do not rebuild.
  const PartitionPlan& partition_plan(const graph::Graph& base, std::size_t parts) {
    for (PartitionPlan& plan : plans_) {
      if (plan.requested_parts() != parts) continue;
      plan.ensure(base, parts);
      return plan;
    }
    plans_.emplace_back().ensure(base, parts);
    return plans_.back();
  }
  /// Every cached plan, for the lb::check layer.
  const std::vector<PartitionPlan>& partition_plans() const { return plans_; }

  /// The edge-flow executor's snapshot cache (DESIGN.md §9.3).  It is the
  /// same buffer as node_scratch(), but accessed WITHOUT dropping the
  /// validity flag: when snapshot_ready() is true the buffer holds a
  /// byte-accurate copy of the run's load vector as the previous round
  /// left it, so the next round skips its O(n) round-start copy.  The
  /// contract is invalidation-by-default — every other user of the
  /// buffer (node_scratch()) and every code path that mutates the load
  /// vector outside the executor (run start, stream deltas, sharded halo
  /// rounds, the legacy step() shim) clears the flag, and only a
  /// completed executor round sets it.
  std::vector<T>& snapshot_scratch() { return node_scratch_; }
  bool snapshot_ready() const { return snapshot_ready_; }
  void set_snapshot_ready(bool ready) { snapshot_ready_ = ready; }
  /// Call after any load mutation the executor did not see.
  void invalidate_snapshot() { snapshot_ready_ = false; }

  /// Pre-size every per-run buffer for an n-node / m-edge topology so the
  /// first round allocates nothing either (the allocation audit's
  /// warm-start hook; bench_scale calls this before its counted region).
  void reserve_for(std::size_t num_nodes, std::size_t num_edges) {
    flows_.reserve(num_edges);
    node_scratch_.reserve(num_nodes);
    node_flags_.reserve(num_nodes);
    summary_parts_.reserve(summary_chunk_count(num_nodes));
    flow_totals_.reserve(summary_chunk_count(num_nodes));
  }

 private:
  std::vector<double> flows_;
  std::vector<T> node_scratch_;
  std::vector<std::uint8_t> node_flags_;
  std::vector<SummaryPartial<T>> summary_parts_;
  std::vector<StepStats> flow_totals_;
  std::vector<double> cut_flows_;
  FlowLedger ledger_;
  std::vector<PartitionPlan> plans_;
  bool snapshot_ready_ = false;
};

template <class T>
class RoundContext {
 public:
  /// Frame-carrying constructor: the round executes against a
  /// TopologyFrame (base graph + optional edge-alive mask).  The frame —
  /// and the base/mask it references — must outlive the round.
  RoundContext(const graph::TopologyFrame& frame, util::Rng& rng,
               util::ThreadPool* pool, RunArena<T>& arena)
      : frame_(&frame), rng_(&rng), pool_(pool), arena_(&arena) {}

  /// Full-graph convenience constructor (static rounds, the legacy
  /// step() shim, direct test call sites).
  RoundContext(const graph::Graph& g, util::Rng& rng, util::ThreadPool* pool,
               RunArena<T>& arena)
      : own_frame_(g), frame_(&own_frame_), rng_(&rng), pool_(pool), arena_(&arena) {}

  /// The round's topology frame.  Mask-aware balancers read degrees and
  /// edge liveness from here and never materialize.
  const graph::TopologyFrame& frame() const { return *frame_; }
  bool masked() const { return frame_->masked(); }

  /// The round's network as a real Graph.  On masked rounds this
  /// *materializes* the subgraph (lazily, cached per mask revision) —
  /// which keeps every balancer that needs full Graph structure
  /// (matchings, spectral lookups) semantically unmodified on dynamic
  /// sequences, at the old rebuild cost.  Mask-aware fast paths use
  /// frame() instead.
  const graph::Graph& graph() const { return frame_->view(); }
  util::Rng& rng() { return *rng_; }

  /// The pool rounds should parallelize on; nullptr means run sequential.
  /// Balancers configured sequential (e.g. DiffusionConfig::parallel ==
  /// false) ignore it.
  util::ThreadPool* pool() const { return pool_; }
  std::size_t workers() const { return pool_ == nullptr ? 1 : pool_->size(); }
  /// True when parallel kernels are worth engaging.
  bool parallel() const { return workers() > 1; }

  RunArena<T>& arena() { return *arena_; }

  /// Shared spectral cache (EngineConfig::spectral_cache; DESIGN.md §10),
  /// or nullptr when the run is cold.  Balancers that bind schedules to
  /// spectral quantities (SOS auto-β, OPS) route their lookups through it
  /// when present; its schedule-feeding paths (summary/spectrum) are
  /// Tier-1 exact, so the trajectory is bit-identical either way.
  linalg::SpectralCache* spectral_cache() const { return spectral_cache_; }
  void set_spectral_cache(linalg::SpectralCache* cache) { spectral_cache_ = cache; }

  /// The shared flow ledger, rebuilt iff its epoch differs from the
  /// round's graph.  Returns a view valid for graph() — on masked rounds
  /// this materializes; mask-aware balancers use frame_ledger().
  FlowLedger& ledger() {
    arena_->ledger().ensure(frame_->view());
    return arena_->ledger();
  }

  /// The shared flow ledger keyed on the frame's *base* graph: built
  /// once per base revision and reused across every mask revision — the
  /// masked substrate's whole point.  Valid for FlowLedger's frame
  /// overloads (and for plain apply on unmasked frames).
  FlowLedger& frame_ledger() {
    arena_->ledger().ensure(*frame_);
    return arena_->ledger();
  }

  // --- Fused-summary protocol (engine -> balancer) ---------------------
  //
  // The engine requests a post-round LoadSummary with Φ measured against
  // `average` (the run-start average; see metrics.hpp).  A balancer whose
  // apply phase sweeps every node SHOULD compute the summary during that
  // sweep (FlowLedger::apply_with_summary, or a fixed-chunk fused loop)
  // and publish it; the engine falls back to a standalone deterministic
  // reduction otherwise.  Either way the bits are identical — publishing
  // just saves the second pass over the load vector.

  void request_summary(SummaryMode mode, double average) {
    summary_requested_ = true;
    summary_mode_ = mode;
    summary_average_ = average;
  }
  bool summary_requested() const { return summary_requested_; }
  SummaryMode summary_mode() const { return summary_mode_; }
  double summary_average() const { return summary_average_; }

  void publish_summary(const LoadSummary<T>& s) {
    summary_ = s;
    has_summary_ = true;
  }
  bool has_summary() const { return has_summary_; }
  const LoadSummary<T>& summary() const { return summary_; }

 private:
  graph::TopologyFrame own_frame_;  // backs the Graph convenience ctor
  const graph::TopologyFrame* frame_;
  util::Rng* rng_;
  util::ThreadPool* pool_;
  RunArena<T>* arena_;
  linalg::SpectralCache* spectral_cache_ = nullptr;

  bool summary_requested_ = false;
  SummaryMode summary_mode_ = SummaryMode::kFull;
  double summary_average_ = 0.0;
  bool has_summary_ = false;
  LoadSummary<T> summary_{};
};


/// Apply `flows` through `ledger`, riding the fused deterministic summary
/// inside the gather when the engine requested one (and publishing it),
/// plain apply otherwise.  `ledger` must already be valid for ctx.graph().
/// Used by the matching rounds (dimension exchange); all-edges rounds run
/// on run_edge_flow_round below.
template <class T>
inline void apply_flows_observed(RoundContext<T>& ctx, FlowLedger& ledger,
                                 const std::vector<double>& flows,
                                 std::vector<T>& load, util::ThreadPool* pool) {
  if (ctx.summary_requested()) {
    LoadSummary<T> summary;
    ledger.apply_with_summary(ctx.graph(), flows, load, pool,
                              ctx.summary_average(), ctx.summary_mode(),
                              ctx.arena().summary_parts(), summary);
    ctx.publish_summary(summary);
  } else {
    ledger.apply(ctx.graph(), flows, load, pool);
  }
}

/// The post-combine of a round without one: the applied value stands.
struct NoPostCombine {
  template <class T>
  T operator()(std::size_t, T applied, T) const {
    return applied;
  }
};

/// One domain's halo view for a segment round, from its SegmentSource.
/// Payloads are raw message bytes, read and written with std::memcpy.
struct DomainHalo {
  /// [peer]: the round-start loads (T) of peer's boundary nodes as this
  /// domain received them, read in place at SegmentLayout::load_slot.
  const std::byte* const* loads = nullptr;
  /// [peer]: write cursor into this domain's outgoing flow payload
  /// (double) toward peer: its alive remote cut flows, ascending edge id.
  std::byte** flows_out = nullptr;
};

/// Value i of a payload of V.
template <class V>
inline V payload_at(const std::byte* payload, std::size_t i) {
  V value;
  std::memcpy(&value, payload + i * sizeof(V), sizeof(V));
  return value;
}

/// The ownership-segment partition source of the edge-flow executor
/// (DESIGN.md §7, §9.6): the layout plus the halo side of the round,
/// which lb::shard implements over its comm channels.  The executor calls
/// each hook once per domain per phase, never per edge or per node.  The
/// node-load superstep (every domain shipping its boundary loads) has
/// been delivered before the round starts.
template <class T>
class SegmentSource {
 public:
  virtual const SegmentLayout& layout() const = 0;
  /// Phase A prologue of domain d.
  virtual DomainHalo open_phase_a(std::size_t d) = 0;
  /// The flow superstep barrier between phases A and B.
  virtual void deliver_flows() = 0;
  /// Phase B prologue of domain d: [peer] the flows (double) received
  /// from peer, by SegmentLayout::flow_slot (a dead edge's slot reads 0).
  virtual const std::byte* const* open_phase_b(std::size_t d) = 0;

 protected:
  ~SegmentSource() = default;
};

namespace detail {

/// The pool layout's stand-in for a segment source: one segment per
/// worker, all of it local.
struct PoolSegments {};

/// The amount a flow moves, with the seed edge sweep's skip and cast
/// rules (0 when nothing moves).
template <class T>
inline T moved_amount(double f) {
  return f == 0.0 ? T{} : static_cast<T>(std::fabs(f));
}

/// Applies one edge's flow to the endpoints this segment owns: always u,
/// and v unless the edge is cut (v's segment applies that side), so every
/// per-node update rounds exactly as apply_edge_sweep's does.  Returns
/// the moved amount.
template <class T>
inline T apply_owned_flow(std::vector<T>& load, const graph::Edge& e, double f,
                          bool cut) {
  if (f == 0.0) return T{};
  const T amount = static_cast<T>(std::fabs(f));
  if (amount == T{}) return T{};
  if (f > 0.0) {
    load[e.u] -= amount;
    if (!cut) load[e.v] += amount;
  } else {
    load[e.u] += amount;
    if (!cut) load[e.v] -= amount;
  }
  return amount;
}

template <bool Masked, class T, class FlowFn, class PostFn, class Source>
void run_partitioned_round(RoundContext<T>& ctx, std::vector<T>& load,
                           util::ThreadPool* pool, StepStats& stats,
                           FlowFn& flow_fn, PostFn& post, Source& source) {
  // Ownership segments: several segments per unit (domain), cut edges
  // that cross domains, chunks that straddle segments.
  constexpr bool kOwned = !std::is_same_v<Source, PoolSegments>;
  const graph::TopologyFrame& frame = ctx.frame();
  const graph::Graph& base = frame.base();
  const std::size_t n = base.num_nodes();
  LB_ASSERT_MSG(load.size() == n, "load vector does not match graph");
  if (n == 0) return;
  RunArena<T>& arena = ctx.arena();
  const SegmentLayout* owned = nullptr;
  const PartitionLayout* layout = nullptr;
  if constexpr (kOwned) {
    owned = &source.layout();
    layout = &owned->segments;
  } else {
    const std::size_t workers = pool == nullptr ? 1 : pool->size();
    layout = &arena.partition_plan(base, workers).layout();
  }
  const PartitionLayout& plan = *layout;
  const std::size_t units = kOwned ? owned->domains() : plan.parts();
  const auto& edges = base.edges();

  const bool ready = arena.snapshot_ready();
  arena.set_snapshot_ready(false);  // never leave a stale claim mid-round
  std::vector<T>& snapshot = arena.snapshot_scratch();
  if (!ready) {
    snapshot.resize(n);
  } else {
    LB_ASSERT_MSG(snapshot.size() == n, "stale snapshot cache: size mismatch");
  }
  const bool summarize = ctx.summary_requested();
  const double average = ctx.summary_average();
  const SummaryMode mode = ctx.summary_mode();
  const std::size_t chunks = summary_chunk_count(n);
  std::vector<SummaryPartial<T>>& summary_parts = arena.summary_parts();
  if (summarize) summary_parts.resize(chunks);
  std::vector<StepStats>& totals = arena.flow_totals();
  totals.resize(chunks);
  std::vector<double>& cut_flows = arena.cut_flows();
  cut_flows.resize(plan.cut_edges.size());
  const std::size_t width = blocked_round_width();
  // Without a post-combine the applied value is already in place.
  constexpr bool kHasPost = !std::is_same_v<std::remove_cvref_t<PostFn>, NoPostCombine>;

  // fn(s) for every segment of unit p, ascending.
  const auto each_segment = [&](std::size_t p, const auto& fn) {
    if constexpr (kOwned) {
      for (std::size_t i = owned->unit_begin[p]; i < owned->unit_begin[p + 1]; ++i) {
        fn(owned->unit_segments[i]);
      }
    } else {
      fn(p);
    }
  };

  // Phase A: outgoing cut flows from the round-start loads (nothing
  // writes `load` in this phase), plus the unit's ranges of the snapshot
  // when the cache is cold.  A flow bound for another domain reads v's
  // load from the received halo and is packed into that link's payload.
  // Straddled chunks get their StepStats partial here, recomputed from
  // the round-start loads in ascending edge id.
  const auto phase_a = [&](std::size_t p) {
    [[maybe_unused]] DomainHalo halo;
    if constexpr (kOwned) halo = source.open_phase_a(p);
    each_segment(p, [&](std::size_t s) {
      for (std::size_t c = plan.cut_begin[s]; c < plan.cut_begin[s + 1]; ++c) {
        const std::uint32_t k = plan.cut_edges[c];
        if constexpr (Masked) {
          if (!frame.alive(k)) {
            cut_flows[c] = 0.0;
            continue;
          }
        }
        const graph::Edge& e = edges[k];
        if constexpr (kOwned) {
          const std::uint32_t to = owned->cut_to[c];
          if (to != p) {
            const T lv = payload_at<T>(halo.loads[to], owned->load_slot[c]);
            const double f = flow_fn(k, e, static_cast<double>(load[e.u]),
                                     static_cast<double>(lv));
            cut_flows[c] = f;
            std::memcpy(halo.flows_out[to], &f, sizeof f);
            halo.flows_out[to] += sizeof f;
            continue;
          }
        }
        cut_flows[c] = flow_fn(k, e, static_cast<double>(load[e.u]),
                               static_cast<double>(load[e.v]));
      }
      if (!ready) {
        std::copy(load.begin() + static_cast<std::ptrdiff_t>(plan.node_begin[s]),
                  load.begin() + static_cast<std::ptrdiff_t>(plan.node_begin[s + 1]),
                  snapshot.begin() + static_cast<std::ptrdiff_t>(plan.node_begin[s]));
      }
    });
    if constexpr (kOwned) {
      for (std::size_t i = owned->straddle_begin[p]; i < owned->straddle_begin[p + 1]; ++i) {
        const std::size_t chunk = owned->straddled[i];
        StepStats moved;
        for (std::size_t k = plan.chunk_edges[chunk]; k < plan.chunk_edges[chunk + 1]; ++k) {
          if constexpr (Masked) {
            if (!frame.alive(k)) continue;
          }
          const graph::Edge& e = edges[k];
          const T amount = moved_amount<T>(flow_fn(k, e, static_cast<double>(load[e.u]),
                                                   static_cast<double>(load[e.v])));
          if (amount == T{}) continue;
          moved.transferred += static_cast<double>(amount);
          ++moved.active_edges;
        }
        totals[chunk] = moved;
      }
    }
  };

  // Phase B: incoming cut flows (every one has a smaller edge id than any
  // edge of the segment), then the blocked fused sweep over the segment.
  // A node is final once the sweep has passed every edge whose u is at or
  // below it, so each block's epilogue — post-combine, summary and StepStats
  // folds, snapshot refresh — runs while the block is cache-resident.  A
  // chunk the segment holds only part of is finalized here but gets its
  // partials elsewhere (phase A, and after the barrier).
  const auto phase_b = [&](std::size_t p) {
    [[maybe_unused]] const std::byte* const* inbox = nullptr;
    if constexpr (kOwned) inbox = source.open_phase_b(p);
    each_segment(p, [&](std::size_t s) {
      const std::size_t lo = plan.node_begin[s];
      const std::size_t hi = plan.node_begin[s + 1];
      for (std::size_t i = plan.in_begin[s]; i < plan.in_begin[s + 1]; ++i) {
        const std::uint32_t c = plan.incoming[i];
        double f = cut_flows[c];
        if constexpr (kOwned) {
          const std::uint32_t from = owned->cut_from[c];
          if (from != p) f = payload_at<double>(inbox[from], owned->flow_slot[c]);
        }
        const T amount = moved_amount<T>(f);
        if (amount == T{}) continue;
        const graph::NodeId v = edges[plan.cut_edges[c]].v;
        if (f > 0.0) {
          load[v] += amount;
        } else {
          load[v] -= amount;
        }
      }
      // Scalars the load stores could alias (a T store may alias a double
      // or an index of the same width) are held in locals.
      const double avg = average;
      std::size_t next_cut = plan.cut_begin[s];
      // One edge slice; a segment without outgoing cut edges (every
      // partition at P = 1) runs the variant with no cut test.
      const auto sweep = [&](std::size_t k_begin, std::size_t k_end, auto has_cuts) {
        const std::size_t end_node = hi;
        std::size_t cut_pos = next_cut;
        StepStats moved;
        for (std::size_t k = k_begin; k < k_end; ++k) {
          const graph::Edge& e = edges[k];
          const bool cut = decltype(has_cuts)::value && e.v >= end_node;
          double f;
          if (cut) {
            f = cut_flows[cut_pos++];
          } else {
            if constexpr (Masked) {
              if (!frame.alive(k)) continue;
            }
            f = flow_fn(k, e, static_cast<double>(snapshot[e.u]),
                        static_cast<double>(snapshot[e.v]));
          }
          const T amount = apply_owned_flow(load, e, f, cut);
          if (amount == T{}) continue;
          moved.transferred += static_cast<double>(amount);
          ++moved.active_edges;
        }
        next_cut = cut_pos;
        return moved;
      };
      const bool has_cuts = plan.cut_begin[s] != plan.cut_begin[s + 1];
      const std::size_t first_chunk = lo / kSummaryChunkWidth;
      const std::size_t end_chunk = summary_chunk_count(hi);
      const std::size_t per_block =
          width == 0 ? end_chunk - first_chunk : width / kSummaryChunkWidth;
      for (std::size_t c0 = first_chunk; c0 < end_chunk; c0 += per_block) {
        const std::size_t c1 = std::min(c0 + per_block, end_chunk);
        for (std::size_t chunk = c0; chunk < c1; ++chunk) {
          std::size_t k_begin = plan.chunk_edges[chunk];
          std::size_t k_end = plan.chunk_edges[chunk + 1];
          bool whole = true;
          if constexpr (kOwned) {
            if (chunk * kSummaryChunkWidth < lo) {
              k_begin = plan.part_edges[s];
              whole = false;
            }
            if (std::min(chunk * kSummaryChunkWidth + kSummaryChunkWidth, n) > hi) {
              k_end = plan.part_edges[s + 1];
              whole = false;
            }
          }
          const StepStats moved = has_cuts ? sweep(k_begin, k_end, std::true_type{})
                                           : sweep(k_begin, k_end, std::false_type{});
          if (whole) totals[chunk] = moved;
        }
        for (std::size_t chunk = c0; chunk < c1; ++chunk) {
          const std::size_t clo = std::max(chunk * kSummaryChunkWidth, lo);
          const std::size_t chi = std::min(chunk * kSummaryChunkWidth + kSummaryChunkWidth, hi);
          const auto finalize = [&](std::size_t u) {
            const T applied = load[u];
            const T value = post(u, applied, snapshot[u]);
            if constexpr (kHasPost) load[u] = value;
            snapshot[u] = value;
            return value;
          };
          const bool whole = !kOwned || (clo == chunk * kSummaryChunkWidth &&
                                         chi == std::min(clo + kSummaryChunkWidth, n));
          if (!summarize || !whole) {
            for (std::size_t u = clo; u < chi; ++u) finalize(u);
            continue;
          }
          SummaryPartial<T> part;
          const T first = finalize(clo);
          summary_begin(part, first);
          summary_accumulate(part, first, avg, mode);
          for (std::size_t u = clo + 1; u < chi; ++u) {
            summary_accumulate(part, finalize(u), avg, mode);
          }
          summary_parts[chunk] = part;
        }
      }
    });
  };

  const auto each = [&](const auto& phase) {
    if (units == 1 || pool == nullptr || pool->size() <= 1) {
      for (std::size_t p = 0; p < units; ++p) phase(p);
      return;
    }
    pool->parallel_for(0, units, 1, [&](std::size_t first, std::size_t last) {
      for (std::size_t p = first; p < last; ++p) phase(p);
    });
  };
  each(phase_a);
  if constexpr (kOwned) source.deliver_flows();
  each(phase_b);
  if constexpr (kOwned) {
    // Straddled chunks' summary partials, from the final loads.
    if (summarize) {
      for (const std::uint32_t chunk : owned->straddled) {
        const std::size_t clo = chunk * kSummaryChunkWidth;
        const std::size_t chi = std::min(clo + kSummaryChunkWidth, n);
        SummaryPartial<T> part;
        summary_begin(part, load[clo]);
        for (std::size_t u = clo; u < chi; ++u) summary_accumulate(part, load[u], average, mode);
        summary_parts[chunk] = part;
      }
    }
  }

  fold_flow_totals(totals, stats);
  if (summarize) {
    ctx.publish_summary(combine_summary_partials(summary_parts, n, average, mode));
  }
  arena.set_snapshot_ready(true);
}

}  // namespace detail

/// The one executor of every all-edges flow round (diffusion, FOS, SOS,
/// async, heterogeneous; DESIGN.md §9.6): a partitioned fused round over
/// P = min(pool size, chunk count) contiguous node partitions.  Phase A
/// computes each partition's outgoing cut-edge flows from the round-start
/// loads; phase B applies each partition's incoming cut flows, then sweeps
/// its own edge slice computing and applying every other flow on the spot.
/// Each node still receives its ±updates in ascending edge order, so the
/// loads are bit-identical to the seed edge sweep at every P, and the
/// summary and StepStats are fixed-chunk folds, independent of P.  At
/// P = 1 this is the single-worker cache-blocked round.
///
/// flow_fn(k, e, ℓ_u, ℓ_v) is the round's pure signed edge flow; the
/// optional post(u, applied, before) computes each node's final value
/// from its applied value and its round-start value (SOS's β mix).  Runs
/// on the frame, masked or not; no CSR ledger and no per-edge flow buffer
/// are touched.
template <class T, class FlowFn, class PostFn = NoPostCombine>
void run_edge_flow_round(RoundContext<T>& ctx, std::vector<T>& load,
                         util::ThreadPool* pool, StepStats& stats, FlowFn&& flow_fn,
                         PostFn&& post = {}) {
  detail::PoolSegments pool_layout;
  if (ctx.masked()) {
    detail::run_partitioned_round<true>(ctx, load, pool, stats, flow_fn, post, pool_layout);
  } else {
    detail::run_partitioned_round<false>(ctx, load, pool, stats, flow_fn, post, pool_layout);
  }
}

/// The same executor on the ownership segments of `source` (shard::run's
/// all-edges rounds): domains are the units, run concurrently on
/// ctx.pool(); each runs its segments in ascending order.  Loads, summary
/// and StepStats are the same bits as the pool layout's.
template <class T, class FlowFn, class PostFn = NoPostCombine>
void run_edge_flow_round(RoundContext<T>& ctx, std::vector<T>& load,
                         SegmentSource<T>& source, StepStats& stats, FlowFn&& flow_fn,
                         PostFn&& post = {}) {
  if (ctx.masked()) {
    detail::run_partitioned_round<true>(ctx, load, ctx.pool(), stats, flow_fn, post, source);
  } else {
    detail::run_partitioned_round<false>(ctx, load, ctx.pool(), stats, flow_fn, post, source);
  }
}

/// Describes an all-edges round as a FlowProgram for the sharded engine:
/// `flow` (the check layer's antisymmetry probe) and `run_segments`, one
/// type-erased call per round into run_edge_flow_round with the
/// balancer's own typed flow_fn and post.
template <class T, class FlowFn, class PostFn = NoPostCombine>
void plan_edge_flow_round(FlowProgram<T>& program, FlowFn flow_fn, PostFn post = {}) {
  program.support = FlowProgram<T>::Support::kAllEdges;
  program.flow = flow_fn;
  program.run_segments = [flow_fn, post](RoundContext<T>& ctx, std::vector<T>& load,
                                         SegmentSource<T>& source, StepStats& stats) {
    run_edge_flow_round(ctx, load, source, stats, flow_fn, post);
  };
}

}  // namespace lb::core
