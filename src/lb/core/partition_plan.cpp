#include "lb/core/partition_plan.hpp"

#include <algorithm>

#include "lb/util/assert.hpp"

namespace lb::core {

namespace {

/// chunks + 1 edge boundaries of the kSummaryChunkWidth source chunks.
std::vector<std::size_t> chunk_edge_bounds(const std::vector<graph::Edge>& edges,
                                           std::size_t n) {
  const std::size_t chunks = summary_chunk_count(n);
  std::vector<std::size_t> bounds(chunks + 1, edges.size());
  bounds[0] = 0;
  for (std::size_t c = 1; c < chunks; ++c) {
    const std::size_t node = c * kSummaryChunkWidth;
    bounds[c] = static_cast<std::size_t>(
        std::partition_point(edges.begin() + static_cast<std::ptrdiff_t>(bounds[c - 1]),
                             edges.end(),
                             [node](const graph::Edge& e) { return e.u < node; }) -
        edges.begin());
  }
  return bounds;
}

/// Fills the edge slices, the cut list and the incoming lists of a layout
/// whose node_begin is set, in one pass over the edge list.  Returns the
/// segment of v of every cut edge.
std::vector<std::uint32_t> fill_segment_lists(PartitionLayout& L,
                                              const std::vector<graph::Edge>& edges) {
  LB_ASSERT_MSG(edges.size() <= std::numeric_limits<std::uint32_t>::max(),
                "partition plan stores 32-bit edge ids");
  const std::size_t S = L.parts();
  L.part_edges.assign(S + 1, edges.size());
  L.part_edges[0] = 0;
  L.cut_begin.assign(S + 1, 0);
  L.in_begin.assign(S + 1, 0);
  L.cut_edges.clear();
  std::vector<std::uint32_t> seg_of_v;
  std::size_t s = 0;
  std::size_t hi = L.node_begin[1];
  for (std::size_t k = 0; k < edges.size(); ++k) {
    const graph::Edge& e = edges[k];
    while (e.u >= hi) {
      ++s;
      L.part_edges[s] = k;
      L.cut_begin[s] = L.cut_edges.size();
      hi = L.node_begin[s + 1];
    }
    if (e.v < hi) continue;
    L.cut_edges.push_back(static_cast<std::uint32_t>(k));
    const auto q = static_cast<std::uint32_t>(
        std::upper_bound(L.node_begin.begin() + static_cast<std::ptrdiff_t>(s + 1),
                         L.node_begin.end(), e.v) -
        L.node_begin.begin() - 1);
    seg_of_v.push_back(q);
    ++L.in_begin[q + 1];
  }
  for (std::size_t t = s + 1; t <= S; ++t) L.cut_begin[t] = L.cut_edges.size();

  // Incoming lists by counting sort on the segment of v; scanning the cut
  // list in order keeps each group ascending.
  for (std::size_t p = 1; p <= S; ++p) L.in_begin[p] += L.in_begin[p - 1];
  std::vector<std::size_t> cursor(L.in_begin.begin(), L.in_begin.end() - 1);
  L.incoming.resize(L.cut_edges.size());
  for (std::size_t c = 0; c < L.cut_edges.size(); ++c) {
    L.incoming[cursor[seg_of_v[c]]++] = static_cast<std::uint32_t>(c);
  }
  return seg_of_v;
}

/// Stable counting sort of ids [0, keys.size()) by key < buckets:
/// fills `begin` (buckets + 1 boundaries) and `ids`, ascending per bucket.
void group_by(const std::vector<std::uint32_t>& keys, std::size_t buckets,
              std::vector<std::size_t>& begin, std::vector<std::uint32_t>& ids) {
  begin.assign(buckets + 1, 0);
  for (const std::uint32_t key : keys) ++begin[key + 1];
  for (std::size_t b = 1; b <= buckets; ++b) begin[b] += begin[b - 1];
  std::vector<std::size_t> cursor(begin.begin(), begin.end() - 1);
  ids.resize(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    ids[cursor[keys[i]]++] = static_cast<std::uint32_t>(i);
  }
}

}  // namespace

PartitionLayout build_partition_layout(const graph::Graph& base, std::size_t parts) {
  const std::size_t n = base.num_nodes();
  const auto& edges = base.edges();
  const std::size_t m = edges.size();
  const std::size_t chunks = summary_chunk_count(n);
  const std::size_t P = std::max<std::size_t>(1, std::min(parts, chunks));

  PartitionLayout L;
  L.chunk_edges = chunk_edge_bounds(edges, n);
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
  if (P > 1) {
    fill_segment_lists(L, edges);
    return L;
  }
  // One partition: no edge leaves it.
  L.part_edges = {0, m};
  L.cut_begin.assign(2, 0);
  L.in_begin.assign(2, 0);
  return L;
}

SegmentLayout build_segment_layout(const graph::Graph& base,
                                   const std::vector<std::uint32_t>& owner,
                                   std::size_t domains) {
  const std::size_t n = base.num_nodes();
  LB_ASSERT_MSG(owner.size() == n && n > 0, "ownership vector does not match graph");
  const auto& edges = base.edges();

  SegmentLayout S;
  PartitionLayout& L = S.segments;
  L.chunk_edges = chunk_edge_bounds(edges, n);
  // Segments: the maximal runs of one owner, in one scan.
  L.node_begin.push_back(0);
  S.owner.push_back(owner[0]);
  for (std::size_t u = 1; u < n; ++u) {
    if (owner[u] == owner[u - 1]) continue;
    L.node_begin.push_back(u);
    S.owner.push_back(owner[u]);
  }
  L.node_begin.push_back(n);
  const std::size_t segments = S.owner.size();

  const std::vector<std::uint32_t> seg_of_v = fill_segment_lists(L, edges);
  S.cut_from.resize(L.cut_edges.size());
  S.cut_to.resize(L.cut_edges.size());
  for (std::size_t s = 0; s < segments; ++s) {
    for (std::size_t c = L.cut_begin[s]; c < L.cut_begin[s + 1]; ++c) {
      S.cut_from[c] = S.owner[s];
      S.cut_to[c] = S.owner[seg_of_v[c]];
    }
  }
  S.load_slot.assign(L.cut_edges.size(), SegmentLayout::kLocal);
  S.flow_slot.assign(L.cut_edges.size(), SegmentLayout::kLocal);

  group_by(S.owner, domains, S.unit_begin, S.unit_segments);

  // Straddled chunks: every chunk holding an unaligned segment boundary,
  // keyed by the domain of its first node.
  std::vector<std::uint32_t> chunk_ids;
  std::vector<std::uint32_t> chunk_owner;
  for (std::size_t s = 1; s < segments; ++s) {
    const std::size_t b = L.node_begin[s];
    if (b % kSummaryChunkWidth == 0) continue;
    const auto chunk = static_cast<std::uint32_t>(b / kSummaryChunkWidth);
    if (!chunk_ids.empty() && chunk_ids.back() == chunk) continue;
    chunk_ids.push_back(chunk);
    chunk_owner.push_back(owner[chunk * kSummaryChunkWidth]);
  }
  std::vector<std::uint32_t> order;
  group_by(chunk_owner, domains, S.straddle_begin, order);
  S.straddled.resize(order.size());
  for (std::size_t i = 0; i < order.size(); ++i) S.straddled[i] = chunk_ids[order[i]];
  return S;
}

}  // namespace lb::core
