#include "lb/shard/ownership.hpp"

#include <algorithm>

#include "lb/util/assert.hpp"

namespace lb::shard {

std::string to_string(PartitionPolicy policy) {
  switch (policy) {
    case PartitionPolicy::kContiguous: return "contiguous";
    case PartitionPolicy::kStrided: return "strided";
    case PartitionPolicy::kGreedyEdgeCut: return "greedy";
  }
  return "?";
}

namespace {

std::size_t count_cut(const graph::Graph& g, const std::vector<std::uint32_t>& owner) {
  std::size_t cut = 0;
  for (const graph::Edge& e : g.edges()) {
    if (owner[e.u] != owner[e.v]) ++cut;
  }
  return cut;
}

// Bounded deterministic refinement of a contiguous seed.  Each pass
// visits nodes in ascending id order and moves a node to the domain
// holding the (strict) majority of its neighbours when that strictly
// reduces the cut, subject to balance guards: the destination stays at
// or below the contiguous cap ⌈n/K⌉ and the source keeps at least one
// node.  Ties between candidate domains break toward the lowest id.
// Every accepted move strictly decreases the global cut, so the loop
// terminates; the pass cap just bounds worst-case work.  The final cut
// is therefore <= the contiguous seed's cut by construction.  Returns
// the final cut.
std::size_t refine(const graph::Graph& g, std::size_t domains,
                   std::vector<std::uint32_t>& owner) {
  const std::size_t n = g.num_nodes();
  const std::size_t cap = (n + domains - 1) / domains;
  std::vector<std::size_t> size(domains, 0);
  for (std::uint32_t d : owner) ++size[d];

  constexpr int kMaxPasses = 8;
  std::vector<std::size_t> tally(domains, 0);
  // A node whose neighbours all share its domain tallies only its own
  // domain and cannot move, so the pass skips it before the tally.  Such
  // nodes are found in bulk: a node is flagged when a cut edge touches
  // it at the start of the pass or a neighbour moves during it; an
  // unflagged node is interior when the pass reaches it.
  std::vector<std::uint8_t> boundary(n);
  for (int pass = 0; pass < kMaxPasses; ++pass) {
    std::fill(boundary.begin(), boundary.end(), 0);
    std::size_t cut = 0;
    for (const graph::Edge& e : g.edges()) {
      if (owner[e.u] == owner[e.v]) continue;
      boundary[e.u] = 1;
      boundary[e.v] = 1;
      ++cut;
    }
    bool moved = false;
    for (graph::NodeId u = 0; u < n; ++u) {
      if (boundary[u] == 0) continue;
      const std::uint32_t from = owner[u];
      if (size[from] <= 1) continue;
      const auto nbrs = g.neighbors(u);
      std::fill(tally.begin(), tally.end(), 0);
      for (graph::NodeId v : nbrs) ++tally[owner[v]];
      // Best destination: most neighbours, lowest id on ties, and it
      // must beat the current domain strictly (strict cut gain).
      std::uint32_t best = from;
      std::size_t best_tally = tally[from];
      for (std::uint32_t d = 0; d < domains; ++d) {
        if (d == from || size[d] >= cap) continue;
        if (tally[d] > best_tally) {
          best = d;
          best_tally = tally[d];
        }
      }
      if (best == from) continue;
      owner[u] = best;
      --size[from];
      ++size[best];
      moved = true;
      for (graph::NodeId v : nbrs) boundary[v] = 1;
    }
    if (!moved) return cut;  // the pass's starting map is the final one
  }
  return count_cut(g, owner);
}

}  // namespace

OwnershipMap OwnershipMap::build(const graph::Graph& g, std::size_t domains,
                                 PartitionPolicy policy) {
  LB_ASSERT_MSG(domains > 0, "need at least one ownership domain");
  LB_ASSERT_MSG(g.num_nodes() > 0, "cannot shard an empty graph");
  LB_ASSERT_MSG(domains <= g.num_nodes(),
                "more ownership domains than nodes");
  const std::size_t n = g.num_nodes();

  OwnershipMap map;
  map.revision_ = g.revision();
  map.domains_ = domains;
  map.policy_ = policy;
  map.owner_.resize(n);

  // Balanced contiguous blocks: the first n mod K domains get ⌈n/K⌉
  // nodes, the rest ⌊n/K⌋ — every domain nonempty whenever K <= n
  // (a plain ⌈n/K⌉ block size can starve trailing domains).
  const auto fill_contiguous = [n, domains](std::vector<std::uint32_t>& owner) {
    const std::size_t q = n / domains;
    const std::size_t r = n % domains;
    auto first = owner.begin();
    for (std::size_t d = 0; d < domains; ++d) {
      const auto last = first + static_cast<std::ptrdiff_t>(d < r ? q + 1 : q);
      std::fill(first, last, static_cast<std::uint32_t>(d));
      first = last;
    }
  };
  switch (policy) {
    case PartitionPolicy::kContiguous:
      fill_contiguous(map.owner_);
      map.cut_edges_ = count_cut(g, map.owner_);
      break;
    case PartitionPolicy::kStrided:
      for (std::size_t u = 0; u < n; ++u) {
        map.owner_[u] = static_cast<std::uint32_t>(u % domains);
      }
      map.cut_edges_ = count_cut(g, map.owner_);
      break;
    case PartitionPolicy::kGreedyEdgeCut:
      fill_contiguous(map.owner_);
      map.cut_edges_ = refine(g, domains, map.owner_);
      break;
  }

  // Owned node lists: sized by one counting pass, filled by a second.
  std::vector<std::size_t> count(domains, 0);
  for (const std::uint32_t d : map.owner_) ++count[d];
  map.nodes_.resize(domains);
  for (std::size_t d = 0; d < domains; ++d) map.nodes_[d].resize(count[d]);
  std::fill(count.begin(), count.end(), 0);
  for (std::size_t u = 0; u < n; ++u) {
    const std::uint32_t d = map.owner_[u];
    map.nodes_[d][count[d]++] = static_cast<graph::NodeId>(u);
  }
  return map;
}

}  // namespace lb::shard
