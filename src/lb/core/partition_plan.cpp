#include "lb/core/partition_plan.hpp"

#include <algorithm>
#include <limits>

#include "lb/util/assert.hpp"

namespace lb::core {

PartitionLayout build_partition_layout(const graph::Graph& base, std::size_t parts) {
  LB_ASSERT_MSG(base.num_edges() <= std::numeric_limits<std::uint32_t>::max(),
                "partition plan stores 32-bit edge ids");
  const std::size_t n = base.num_nodes();
  const auto& edges = base.edges();
  const std::size_t m = edges.size();
  const std::size_t chunks = summary_chunk_count(n);
  const std::size_t P = std::max<std::size_t>(1, std::min(parts, chunks));

  PartitionLayout L;
  L.chunk_edges.assign(chunks + 1, m);
  L.chunk_edges[0] = 0;
  for (std::size_t c = 1; c < chunks; ++c) {
    const std::size_t node = c * kSummaryChunkWidth;
    L.chunk_edges[c] = static_cast<std::size_t>(
        std::partition_point(edges.begin() + static_cast<std::ptrdiff_t>(L.chunk_edges[c - 1]),
                             edges.end(),
                             [node](const graph::Edge& e) { return e.u < node; }) -
        edges.begin());
  }
  // Interior boundaries: the first chunk boundary whose edge prefix
  // reaches p·m/P, kept strictly increasing so every partition owns at
  // least one chunk.
  L.node_begin.assign(P + 1, n);
  L.node_begin[0] = 0;
  std::size_t prev = 0;
  for (std::size_t p = 1; p < P; ++p) {
    const std::size_t target = m / P * p + m % P * p / P;
    const auto first = L.chunk_edges.begin() + static_cast<std::ptrdiff_t>(prev + 1);
    const auto last = L.chunk_edges.begin() + static_cast<std::ptrdiff_t>(chunks - (P - p));
    prev = static_cast<std::size_t>(std::lower_bound(first, last, target) -
                                    L.chunk_edges.begin());
    L.node_begin[p] = prev * kSummaryChunkWidth;
  }

  L.cut_begin.assign(P + 1, 0);
  L.in_begin.assign(P + 1, 0);
  if (P == 1) return L;  // one partition: no edge leaves it

  std::vector<std::uint32_t> owner_of_cut;
  for (std::size_t p = 0; p < P; ++p) {
    L.cut_begin[p] = L.cut_edges.size();
    const std::size_t hi = L.node_begin[p + 1];
    for (std::size_t k = L.edge_begin(p); k < L.edge_begin(p + 1); ++k) {
      const graph::NodeId v = edges[k].v;
      if (v < hi) continue;
      L.cut_edges.push_back(static_cast<std::uint32_t>(k));
      const auto q = static_cast<std::uint32_t>(
          std::upper_bound(L.node_begin.begin(), L.node_begin.end(), v) -
          L.node_begin.begin() - 1);
      owner_of_cut.push_back(q);
      ++L.in_begin[q + 1];
    }
  }
  L.cut_begin[P] = L.cut_edges.size();

  // Incoming lists by counting sort on the owner of v; scanning the cut
  // list in order keeps each group ascending.
  for (std::size_t p = 1; p <= P; ++p) L.in_begin[p] += L.in_begin[p - 1];
  std::vector<std::size_t> cursor(L.in_begin.begin(), L.in_begin.end() - 1);
  L.incoming.resize(L.cut_edges.size());
  for (std::size_t c = 0; c < L.cut_edges.size(); ++c) {
    L.incoming[cursor[owner_of_cut[c]]++] = static_cast<std::uint32_t>(c);
  }
  return L;
}

}  // namespace lb::core
