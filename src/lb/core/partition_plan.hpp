// Partition sources for the partitioned fused round (DESIGN.md §9.6).
//
// The round's node range [0, n) is cut into contiguous *segments*.  The
// edge list is sorted by canonical source u, so each segment's outgoing
// edges (u inside it) are one contiguous slice.  An edge whose v lies
// beyond its segment's end is a *cut edge*: its flow is computed once,
// in phase A, and its v side is applied by v's segment before that
// segment's own sweep.  A layout records what the round needs: the node
// and edge boundaries of every segment and of every kSummaryChunkWidth
// chunk, the cut edges in ascending edge id grouped by the segment of u,
// and for every segment the positions of the cut edges it receives,
// ascending.
//
// There are two sources of segments:
//   * the pool layout (PartitionPlan): P = min(pool size, chunk count)
//     segments of whole chunks, one per worker — core::run's rounds;
//   * the ownership segments (SegmentLayout): the maximal runs of
//     consecutive node ids owned by one of K domains, grouped by domain —
//     shard::run's rounds, where domains are the unit of concurrency.
//
// Both are pure functions of their inputs (base graph and P, or base
// graph and ownership map): built once per base revision, never touched
// by mask revisions (a dead cut edge simply carries zero flow).
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "lb/core/metrics.hpp"
#include "lb/graph/graph.hpp"

namespace lb::core {

/// A layout's arrays; S = node_begin.size() − 1 segments.
struct PartitionLayout {
  /// S + 1 node boundaries: 0, interior cuts, n.
  std::vector<std::size_t> node_begin;
  /// S + 1 edge boundaries: segment s's edges (u in it) are
  /// [part_edges[s], part_edges[s+1]).
  std::vector<std::size_t> part_edges;
  /// chunks + 1 edge boundaries: chunk c's edges (u in the chunk) are
  /// [chunk_edges[c], chunk_edges[c+1]).
  std::vector<std::size_t> chunk_edges;
  /// Every cut edge (u and v in different segments), ascending id.
  std::vector<std::uint32_t> cut_edges;
  /// S + 1 boundaries into cut_edges: segment s's outgoing cuts.
  std::vector<std::size_t> cut_begin;
  /// Positions into cut_edges, grouped by the segment of v, ascending
  /// within each group (= ascending edge id).
  std::vector<std::uint32_t> incoming;
  /// S + 1 boundaries into incoming.
  std::vector<std::size_t> in_begin;

  std::size_t parts() const { return node_begin.empty() ? 0 : node_begin.size() - 1; }
  /// First edge of segment p's slice (p == parts(): one past the last).
  std::size_t edge_begin(std::size_t p) const { return part_edges[p]; }
};

/// Builds the pool layout for `parts` requested partitions, clamped to
/// the chunk count (P = min(parts, chunks), at least 1).  Boundaries are
/// chunk-aligned and balanced on edge-slice size.
PartitionLayout build_partition_layout(const graph::Graph& base, std::size_t parts);

/// A pool layout cached against the base graph it was built for.
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

/// The ownership segments of a K-domain node→domain map (DESIGN.md §7):
/// the segment-level layout plus what a domain needs to run its
/// segments.  Per cut edge c (parallel to segments.cut_edges) it records
/// the domains of u and v; a cut edge is *remote* when they differ, and
/// then its two halo slots say where the round reads across the domain
/// boundary.  lb::shard fills the slots (HaloExchange::build); everything
/// else comes from build_segment_layout.
struct SegmentLayout {
  static constexpr std::uint32_t kLocal = std::numeric_limits<std::uint32_t>::max();

  /// Segment boundaries (not chunk-aligned), slices, cut and incoming lists.
  PartitionLayout segments;
  /// Per segment: its owning domain.
  std::vector<std::uint32_t> owner;
  /// Segment ids of domain d, ascending:
  /// unit_segments[unit_begin[d] .. unit_begin[d+1]).
  std::vector<std::uint32_t> unit_segments;
  std::vector<std::size_t> unit_begin;
  /// Chunks with a segment boundary strictly inside them, ascending,
  /// grouped by the domain owning the chunk's first node
  /// (straddled[straddle_begin[d] .. straddle_begin[d+1])).
  std::vector<std::uint32_t> straddled;
  std::vector<std::size_t> straddle_begin;
  /// Per cut edge: the domains owning u and v.
  std::vector<std::uint32_t> cut_from;
  std::vector<std::uint32_t> cut_to;
  /// Per remote cut edge (kLocal otherwise): v's position in the
  /// round-start loads cut_from receives from cut_to, and k's position in
  /// the flows cut_to receives from cut_from.
  std::vector<std::uint32_t> load_slot;
  std::vector<std::uint32_t> flow_slot;

  std::size_t domains() const { return unit_begin.empty() ? 0 : unit_begin.size() - 1; }
};

/// Builds the ownership segments of `owner` (node → domain < domains)
/// over `base`: one scan of the owner vector and one of the edge list;
/// the halo slots are left kLocal for the caller to fill.
SegmentLayout build_segment_layout(const graph::Graph& base,
                                   const std::vector<std::uint32_t>& owner,
                                   std::size_t domains);

}  // namespace lb::core
