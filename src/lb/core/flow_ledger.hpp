// Node-centric flow-ledger kernel, and the shared pieces of every
// edge-flow balancing round (Algorithm 1 diffusion, FOS/SOS, dimension
// exchange).
//
// A synchronous round in the paper is "compute every edge flow from the
// round-start snapshot, then apply all of them".  The seed implemented the
// apply as a sequential edge-list sweep (apply_edge_sweep below, kept as
// the kEdgeSweep oracle).  All-edges rounds now run on the partitioned
// fused round (round_context.hpp, DESIGN.md §9.6), which needs no CSR.
// The ledger remains for rounds whose flows arrive as a filled vector
// (dimension exchange's matchings): a CSR view (linalg::CsrMatrix layout:
// row_ptr over nodes, column array of incident edge ids) is precomputed
// once per graph epoch, and the apply walks each node's incident edges,
// updating only that node's load.  Each node owns its row, so the sweep
// parallelizes with no write races and no atomics — and because a node's
// incident edges are stored in ascending edge-index order and applied
// with per-edge operations that round exactly like the edge sweep's
// ±amount updates, the resulting load vector is BIT-IDENTICAL to the
// sequential edge-list apply at every thread count.  On a single-worker
// pool the ledger instead falls back to the linear edge sweep itself.
//
// Epoch invalidation: the ledger is keyed on graph::Graph::revision(), a
// process-unique id minted per build.  Dynamic sequences (graph/dynamic.hpp)
// rebuild their current graph each round — often at the same address — and
// the revision changes with them, so ensure() rebuilds exactly when the
// topology actually changed and is free for static networks.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "lb/core/algorithm.hpp"
#include "lb/core/metrics.hpp"
#include "lb/graph/edge_mask.hpp"
#include "lb/graph/graph.hpp"
#include "lb/util/index_array.hpp"
#include "lb/util/thread_pool.hpp"

namespace lb::core {

/// Node-block width of the partitioned fused round's sweep (DESIGN.md
/// §9.2), in nodes.  Resolution order: set_blocked_width_override() ▸ the
/// LB_BLOCK_NODES environment variable ▸ a 16384-node default (64–128 KiB
/// of load vector — L2-resident on everything we target).  Always a
/// multiple of kSummaryChunkWidth so summary chunks never straddle a
/// block; 0 disables blocking (each partition's epilogue runs after its
/// whole sweep).  The width NEVER affects results — every width is
/// bit-identical (the property tests randomize it) — so this is a pure
/// performance knob.
std::size_t blocked_round_width();

/// Test/bench hook: width < 0 clears the override (back to env/default),
/// 0 forces the flat path, > 0 is rounded up to a kSummaryChunkWidth
/// multiple and used as the block width.
void set_blocked_width_override(long long width);

/// Which apply implementation a ported balancer uses.  kEdgeSweep is the
/// seed's sequential edge-list path, kept as the equivalence oracle for
/// tests and the ablation benches; kLedger is the production default (the
/// partitioned fused round; the CSR ledger for matching rounds).
enum class ApplyPath {
  kLedger,
  kEdgeSweep,
};

class FlowLedger {
 public:
  FlowLedger() = default;

  /// Build the CSR incident-edge view for `g`.  O(n + m).
  void rebuild(const graph::Graph& g);

  /// True if the ledger was built for exactly this topology epoch.
  bool valid_for(const graph::Graph& g) const {
    return revision_ != 0 && revision_ == g.revision();
  }

  /// Drop the cached view; the next ensure() rebuilds.
  void invalidate() { revision_ = 0; }

  /// Rebuild iff the cached view does not match `g`'s epoch.  Returns true
  /// when a rebuild happened, so callers can refresh their own per-epoch
  /// caches (e.g. per-edge denominators) in lockstep.
  bool ensure(const graph::Graph& g) {
    if (valid_for(g)) return false;
    rebuild(g);
    return true;
  }

  /// Masked-frame keying: the CSR depends only on the *base* graph, so a
  /// frame ensure() rebuilds exactly when the base revision moves — mask
  /// revisions churn every dynamic round without touching the CSR.  This
  /// is the (base_revision, mask_revision) cache split: the ledger holds
  /// the base_revision half, the per-round flows/degrees carry the
  /// mask_revision half.
  bool ensure(const graph::TopologyFrame& frame) { return ensure(frame.base()); }

  std::size_t num_nodes() const { return num_nodes_; }
  std::size_t num_edges() const { return num_edges_; }

  /// Read-only views of the CSR arrays, for the lb::check invariant layer
  /// (check_ledger recomputes well-formedness from these after each epoch
  /// rebuild).  Layout documented at the member declarations below.
  const util::IndexArray& row_ptr() const { return row_ptr_; }
  const std::vector<std::uint32_t>& edge_indices() const { return edge_idx_; }
  const std::vector<std::int8_t>& signs() const { return sign_; }
  /// Resident bytes of the ledger's index/sign arrays — the CSR half of
  /// the bytes/node scale metric.
  std::size_t memory_bytes() const {
    return row_ptr_.size_bytes() + edge_idx_.size() * sizeof(std::uint32_t) +
           sign_.size() * sizeof(std::int8_t);
  }

  /// Apply signed per-edge flows (positive moves load e.u -> e.v) to
  /// `load`, node-parallel on `pool` (nullptr or a single-worker pool
  /// falls back to the sequential edge sweep over `g`).  `g` must be the
  /// graph the ledger was built for.  Bit-identical to apply_edge_sweep
  /// on the same flows for any pool size.
  template <class T>
  void apply(const graph::Graph& g, const std::vector<double>& flows,
             std::vector<T>& load, util::ThreadPool* pool) const;

  /// Fused apply + deterministic summary: performs the exact same per-node
  /// load updates as apply(), and while each node's final value is still in
  /// register accumulates it into the fixed-chunk reduction of
  /// core/metrics.hpp (Φ measured against `average`) — one sweep over the
  /// load vector instead of apply-then-summarize's two.  The node gather is
  /// driven chunk-by-chunk (chunk boundaries a function of n only), so both
  /// the loads and `out` are bit-identical to apply() followed by
  /// summarize_deterministic() at every pool size, including sequential.
  /// `parts` is the caller's per-chunk partial scratch (RunArena keeps one
  /// per run) so steady-state rounds allocate nothing.
  template <class T>
  void apply_with_summary(const graph::Graph& g, const std::vector<double>& flows,
                          std::vector<T>& load, util::ThreadPool* pool,
                          double average, SummaryMode mode,
                          std::vector<SummaryPartial<T>>& parts,
                          LoadSummary<T>& out) const;

 private:
  template <class T>
  void apply_gather(const std::vector<double>& flows, std::vector<T>& load,
                    util::ThreadPool& pool) const;

  // The shared per-node row walk: node u's final value from its incident
  // rows, with the rounding rules that make the gather bit-identical to
  // the sequential edge sweep (see apply_gather's commentary).
  template <class T>
  T gather_node(std::size_t u, const std::vector<double>& flows,
                const std::vector<T>& load) const {
    T value = load[u];
    const std::size_t row_end = static_cast<std::size_t>(row_ptr_[u + 1]);
    for (std::size_t p = static_cast<std::size_t>(row_ptr_[u]); p < row_end; ++p) {
      const double f = flows[edge_idx_[p]];
      if (f == 0.0) continue;
      // sign_[p]·f is exactly ±f (an int8 ±1 promotes to ±1.0 exactly),
      // and x + (−f) rounds identically to the edge sweep's x −= |f|
      // (x − |f| ≡ x + (−|f|) in IEEE), so every per-node update matches
      // the oracle bit for bit.  For integral T the truncating cast of ±f
      // equals the sweep's ±⌊|f|⌋, and adding a zero amount is the
      // identity, matching the sweep's skip.
      if constexpr (std::is_integral_v<T>) {
        value += static_cast<T>(sign_[p] * f);
      } else {
        value += static_cast<T>(sign_[p]) * static_cast<T>(f);
      }
    }
    return value;
  }

  std::uint64_t revision_ = 0;
  std::size_t num_nodes_ = 0;
  std::size_t num_edges_ = 0;
  util::IndexArray row_ptr_;             // n + 1 entries (CsrMatrix layout; narrow when 2m < 2^32)
  std::vector<std::uint32_t> edge_idx_;  // 2m incident edge ids, ascending per row
  std::vector<std::int8_t> sign_;        // -1 if the row's node is the edge's u
};

/// The seed's sequential edge-list apply, shared by every ported balancer's
/// kEdgeSweep path (and the oracle the ledger is tested against).
template <class T>
void apply_edge_sweep(const graph::Graph& g, const std::vector<double>& flows,
                      std::vector<T>& load);

/// StepStats::transferred / active_edges of an all-edges round are a
/// fixed-chunk fold over SOURCE-node chunks (DESIGN.md §4): edge k
/// belongs to the kSummaryChunkWidth chunk holding its canonical u; each
/// chunk sums its moved amounts in ascending edge order from zero, and
/// fold_flow_totals adds the chunk sums into `stats` in ascending chunk
/// order.  Chunk boundaries depend on n only, so every executor — the
/// edge sweep below, the partitioned round at any P, the sharded engine
/// at any K — reports the same bits.
inline void fold_flow_totals(const StepStats& chunk, StepStats& stats) {
  stats.transferred += chunk.transferred;
  stats.active_edges += chunk.active_edges;
}

inline void fold_flow_totals(const std::vector<StepStats>& parts, StepStats& stats) {
  for (const StepStats& p : parts) fold_flow_totals(p, stats);
}

/// The seed's fused apply + stats loop: one sequential pass that moves
/// the load (verbatim seed updates) and accumulates transferred /
/// active_edges as the source-chunk fold.  The kEdgeSweep oracle.
/// `stats.links` is left to the caller.
template <class T>
void apply_edge_sweep_with_stats(const graph::Graph& g,
                                 const std::vector<double>& flows,
                                 std::vector<T>& load, StepStats& stats);

/// Phase 1 of the shared kernel: fill `flows` with
/// flow_fn(edge_index, edge, load_u, load_v) for every edge, edge-parallel
/// on `pool` (nullptr = sequential).  flow_fn must be pure in its inputs;
/// positive return moves load u -> v.
template <class T, class FlowFn>
void compute_edge_flows(const graph::Graph& g, const std::vector<T>& load,
                        std::vector<double>& flows, util::ThreadPool* pool,
                        FlowFn&& flow_fn) {
  const auto& edges = g.edges();
  flows.resize(edges.size());  // every slot is written below; no zero-fill
  auto fill = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t k = lo; k < hi; ++k) {
      const graph::Edge& e = edges[k];
      flows[k] = flow_fn(k, e, static_cast<double>(load[e.u]),
                         static_cast<double>(load[e.v]));
    }
  };
  if (pool != nullptr) {
    pool->parallel_for(0, edges.size(), 2048, fill);
  } else {
    fill(0, edges.size());
  }
}

}  // namespace lb::core
