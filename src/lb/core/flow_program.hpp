// FlowProgram: a balancer round expressed as data, for distributed replay.
//
// The shared-memory engine lets a balancer execute its round however it
// likes inside step().  The sharded engine (lb/shard/) cannot: domains
// must compute their owned edges' flows independently from halo copies of
// boundary loads, so the round has to be *described* — a pure per-edge
// flow function plus optional structure — rather than executed.  A
// Balancer that can be distributed implements plan_round() (see
// algorithm.hpp) by filling one of these; the sharded engine then runs
// the identical arithmetic through its ownership/halo machinery.
//
// An all-edges round reaches the sharded engine as `run_segments`: one
// type-erased call per round into the same edge-flow executor step()
// runs (round_context.hpp, plan_edge_flow_round), on the ownership
// segments instead of the pool layout, so the balancer's typed flow
// functor runs in the executor's inner loops with no per-edge
// indirection.  Flows must be PURE in their stated inputs — they may
// depend only on (edge index, endpoints, the two endpoint loads at round
// start), never on neighbouring loads or mutable state — because a
// remote domain evaluates them against halo *copies* of those operands
// and copies of doubles are bitwise verbatim.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "lb/graph/graph.hpp"

namespace lb::core {

struct StepStats;
template <class T>
class RoundContext;
template <class T>
class SegmentSource;

template <class T>
struct FlowProgram {
  /// Which edges carry flow this round.
  enum class Support : std::uint8_t {
    /// Every alive edge (diffusion, FOS, SOS): executed by run_segments.
    kAllEdges,
    /// Only `matched` (dimension exchange): a vertex-disjoint edge set in
    /// matching order; each endpoint receives a single ±amount update.
    kMatching,
  };

  /// Signed flow for edge k = (e.u, e.v) from the round-start endpoint
  /// loads; positive moves load u -> v.  Must reproduce the balancer's
  /// step() flow for that edge bit for bit (same operand values, same
  /// operation order).  The matching rounds run on it; for all-edges
  /// rounds it is the check layer's antisymmetry probe.
  using FlowFn =
      std::function<double(std::size_t k, const graph::Edge& e, double lu, double lv)>;

  /// The all-edges round on a segment source: runs the whole round
  /// (loads, fused summary, StepStats into `stats`).
  using SegmentRoundFn = std::function<void(RoundContext<T>& ctx, std::vector<T>& load,
                                            SegmentSource<T>& source, StepStats& stats)>;

  Support support = Support::kAllEdges;
  FlowFn flow;
  /// kAllEdges only.
  SegmentRoundFn run_segments;
  /// Base edge ids in matching order (kMatching only).  Ids index the
  /// frame's BASE edge list, so masked rounds need no materialized view.
  std::vector<std::uint32_t> matched;
  /// StepStats::links for the round (|E| or matching size).
  std::size_t links = 0;

  void reset() {
    support = Support::kAllEdges;
    flow = nullptr;
    run_segments = nullptr;
    matched.clear();
    links = 0;
  }
};

}  // namespace lb::core
