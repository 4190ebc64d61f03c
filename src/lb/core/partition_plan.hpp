// Partition plan for the partitioned fused round (DESIGN.md §9.6).
//
// The round's node range [0, n) is cut into P contiguous partitions built
// from whole kSummaryChunkWidth chunks.  The edge list is sorted by
// canonical source u, so each partition's outgoing edges (u inside it)
// are one contiguous slice.  An edge whose v lies beyond its partition's
// end is a *cut edge*: its flow is computed once, in phase A, and its v
// side is applied by v's owner before that owner's own sweep.  The plan
// records what the round needs: the node and per-chunk edge boundaries,
// the cut edges in ascending edge id grouped by the owner of u, and for
// every partition the positions of the cut edges it receives, ascending.
//
// A plan is a pure function of (base graph, P): it is built once per base
// revision and part count, and mask revisions never touch it (a dead cut
// edge simply carries zero flow).
#pragma once

#include <cstdint>
#include <vector>

#include "lb/core/metrics.hpp"
#include "lb/graph/graph.hpp"

namespace lb::core {

/// The plan's arrays; P = node_begin.size() − 1.
struct PartitionLayout {
  /// P + 1 node boundaries: 0, chunk-aligned interior cuts, n.
  std::vector<std::size_t> node_begin;
  /// chunks + 1 edge boundaries: chunk c's edges (u in the chunk) are
  /// [chunk_edges[c], chunk_edges[c+1]).
  std::vector<std::size_t> chunk_edges;
  /// Every cut edge (u and v in different partitions), ascending id.
  std::vector<std::uint32_t> cut_edges;
  /// P + 1 boundaries into cut_edges: partition p's outgoing cuts.
  std::vector<std::size_t> cut_begin;
  /// Positions into cut_edges, grouped by the owner of v, ascending
  /// within each group (= ascending edge id).
  std::vector<std::uint32_t> incoming;
  /// P + 1 boundaries into incoming.
  std::vector<std::size_t> in_begin;

  std::size_t parts() const { return node_begin.empty() ? 0 : node_begin.size() - 1; }
  /// First edge of partition p's slice (p == parts(): one past the last).
  std::size_t edge_begin(std::size_t p) const {
    return chunk_edges[summary_chunk_count(node_begin[p])];
  }
};

/// Builds the layout for `parts` requested partitions, clamped to the
/// chunk count (P = min(parts, chunks), at least 1).  Boundaries are
/// balanced on edge-slice size.
PartitionLayout build_partition_layout(const graph::Graph& base, std::size_t parts);

/// A layout cached against the base graph it was built for.
class PartitionPlan {
 public:
  /// Rebuild iff the plan was built for another base revision or another
  /// requested part count.
  void ensure(const graph::Graph& base, std::size_t parts) {
    if (revision_ == base.revision() && requested_ == parts) return;
    layout_ = build_partition_layout(base, parts);
    revision_ = base.revision();
    requested_ = parts;
  }

  bool valid_for(const graph::Graph& base) const {
    return revision_ != 0 && revision_ == base.revision();
  }
  std::size_t requested_parts() const { return requested_; }
  const PartitionLayout& layout() const { return layout_; }

 private:
  std::uint64_t revision_ = 0;
  std::size_t requested_ = 0;
  PartitionLayout layout_;
};

}  // namespace lb::core
