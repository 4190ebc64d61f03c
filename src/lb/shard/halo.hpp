// Halo-exchange plans: the per-domain routing tables the sharded engine
// executes each round.
//
// For a cut edge k = (u, v) with a = owner(u) ≠ owner(v) = b, the round
// protocol is fixed by convention on the *u endpoint*: domain a owns
// edge k, computes its flow, and applies u's side; domain b contributes
// v's round-start load beforehand and receives the computed flow after.
// So per ordered domain pair there are two payload kinds:
//
//   loads:  b → a   load[v] for every boundary node v (deduplicated —
//                   one copy feeds all of a's edges into v),
//   flows:  a → b   flows[k] for every cut edge a owns toward b.
//
// Both sides derive each list from the same ascending base-edge sweep
// (node lists sorted + deduplicated, edge lists naturally ascending), so
// sender pack order and receiver unpack order agree by construction —
// the channel is a FIFO with no per-message framing.
//
// A domain runs its part of the round over its ownership segments
// (core::SegmentLayout: maximal runs of consecutive owned node ids) on
// the same edge-flow executor core::run uses (DESIGN.md §7, §9.6).  The
// exchange carries those segments plus, per remote cut edge, the two
// halo slots: where v's load sits in the received load payload, and
// where k's flow sits in the received flow payload.  The build is one
// owner scan, one edge-list scan, and O(cut) list and slot work.
#pragma once

#include <cstdint>
#include <vector>

#include "lb/core/partition_plan.hpp"
#include "lb/graph/graph.hpp"
#include "lb/shard/ownership.hpp"

namespace lb::shard {

/// One peer's routing entry within a DomainPlan.  All four lists are
/// from the plan-owning domain's perspective.
struct HaloLink {
  std::uint32_t peer = 0;
  /// Owned boundary nodes whose loads the peer needs (ascending, unique).
  std::vector<graph::NodeId> send_nodes;
  /// Peer-owned boundary nodes this domain needs (ascending, unique).
  std::vector<graph::NodeId> recv_nodes;
  /// Owned cut edges whose flow goes to the peer (ascending base ids).
  std::vector<std::uint32_t> send_flow_edges;
  /// Peer-owned cut edges whose flow arrives here (ascending base ids).
  std::vector<std::uint32_t> recv_flow_edges;
};

struct DomainPlan {
  /// Peers, sorted ascending by domain id.
  std::vector<HaloLink> links;
};

class HaloExchange {
 public:
  HaloExchange() = default;

  /// Build all K domain plans and the ownership segments for (g, map).
  /// map must have been built for g (same revision).  Deterministic:
  /// pure function of the two.
  static HaloExchange build(const graph::Graph& g, const OwnershipMap& map);

  std::size_t domains() const { return plans_.size(); }
  const DomainPlan& plan(std::size_t d) const { return plans_[d]; }
  const std::vector<DomainPlan>& plans() const { return plans_; }
  /// The ownership segments the executor runs, with their halo slots.
  const core::SegmentLayout& segments() const { return segments_; }

  /// Edges domain d owns (owner(e.u) == d).
  std::size_t owned_edges(std::size_t d) const;

  /// Cut edges crossing any domain boundary (== map.cut_edges()).
  std::size_t cut_edges() const { return cut_edges_; }

  bool valid_for(const graph::Graph& g, const OwnershipMap& map) const {
    return revision_ != 0 && revision_ == g.revision() &&
           plans_.size() == map.domains();
  }

 private:
  std::uint64_t revision_ = 0;
  std::size_t cut_edges_ = 0;
  std::vector<DomainPlan> plans_;
  core::SegmentLayout segments_;
};

}  // namespace lb::shard
