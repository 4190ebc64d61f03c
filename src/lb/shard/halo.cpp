#include "lb/shard/halo.hpp"

#include <algorithm>

#include "lb/util/assert.hpp"

namespace lb::shard {

namespace {

void sort_unique(std::vector<graph::NodeId>& v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
}

}  // namespace

HaloExchange HaloExchange::build(const graph::Graph& g, const OwnershipMap& map) {
  LB_ASSERT_MSG(map.valid_for(g, map.domains(), map.policy()),
                "ownership map was built for a different topology");
  const std::size_t K = map.domains();
  const auto& edges = g.edges();

  HaloExchange halo;
  halo.revision_ = g.revision();
  halo.plans_.resize(K);
  halo.segments_ = core::build_segment_layout(g, map.owners(), K);
  core::SegmentLayout& seg = halo.segments_;
  const std::vector<std::uint32_t>& cut = seg.segments.cut_edges;

  // Links in ascending peer order, found from the remote cut edges (the
  // ownership cut edges: every one crosses a segment boundary too).
  constexpr std::uint32_t kNone = core::SegmentLayout::kLocal;
  std::vector<std::uint32_t> link_of(K * K, kNone);
  for (std::size_t c = 0; c < cut.size(); ++c) {
    const std::uint32_t a = seg.cut_from[c];
    const std::uint32_t b = seg.cut_to[c];
    if (a == b) continue;
    link_of[a * K + b] = 0;
    link_of[b * K + a] = 0;
  }
  for (std::size_t d = 0; d < K; ++d) {
    for (std::size_t peer = 0; peer < K; ++peer) {
      std::uint32_t& index = link_of[d * K + peer];
      if (index == kNone) continue;
      index = static_cast<std::uint32_t>(halo.plans_[d].links.size());
      halo.plans_[d].links.push_back(HaloLink{});
      halo.plans_[d].links.back().peer = static_cast<std::uint32_t>(peer);
    }
  }

  // One ascending sweep of the remote cut edges: a computes flow k, so it
  // needs v's load from b and ships the flow back.  The flow lists come
  // out ascending, and k's flow slot is its position in b's list.
  for (std::size_t c = 0; c < cut.size(); ++c) {
    const std::uint32_t a = seg.cut_from[c];
    const std::uint32_t b = seg.cut_to[c];
    if (a == b) continue;
    ++halo.cut_edges_;
    const std::uint32_t k = cut[c];
    const graph::NodeId v = edges[k].v;
    HaloLink& out = halo.plans_[a].links[link_of[a * K + b]];
    HaloLink& in = halo.plans_[b].links[link_of[b * K + a]];
    out.recv_nodes.push_back(v);
    in.send_nodes.push_back(v);
    out.send_flow_edges.push_back(k);
    seg.flow_slot[c] = static_cast<std::uint32_t>(in.recv_flow_edges.size());
    in.recv_flow_edges.push_back(k);
  }

  // Canonical node lists: both endpoints of a pair run the same sort
  // over the same set, so sender pack order == receiver unpack order.
  // v's load slot is its position in the deduplicated list.
  for (DomainPlan& plan : halo.plans_) {
    for (HaloLink& l : plan.links) {
      sort_unique(l.send_nodes);
      sort_unique(l.recv_nodes);
    }
  }
  for (std::size_t c = 0; c < cut.size(); ++c) {
    const std::uint32_t a = seg.cut_from[c];
    const std::uint32_t b = seg.cut_to[c];
    if (a == b) continue;
    const std::vector<graph::NodeId>& nodes =
        halo.plans_[a].links[link_of[a * K + b]].recv_nodes;
    seg.load_slot[c] = static_cast<std::uint32_t>(
        std::lower_bound(nodes.begin(), nodes.end(), edges[cut[c]].v) - nodes.begin());
  }
  return halo;
}

std::size_t HaloExchange::owned_edges(std::size_t d) const {
  const core::PartitionLayout& L = segments_.segments;
  std::size_t owned = 0;
  for (std::size_t i = segments_.unit_begin[d]; i < segments_.unit_begin[d + 1]; ++i) {
    const std::uint32_t s = segments_.unit_segments[i];
    owned += L.part_edges[s + 1] - L.part_edges[s];
  }
  return owned;
}

}  // namespace lb::shard
