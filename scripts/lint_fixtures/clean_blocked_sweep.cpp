// lint-fixture-path: core/clean_blocked_sweep.cpp
// Clean fixture: the cache-blocked fused-round sweep (DESIGN.md §9), the
// distilled idiom behind each partition's sweep in run_edge_flow_round.  It is
// sequential — one cursor walks the sorted edge slab, blocks advance by a
// pure function of n, and the per-chunk epilogue both folds the summary
// and refreshes the snapshot from the same load read.  None of that is a
// parallel region, so LD003/LD004 must not fire on the cursor advance,
// the ±amount load writes, or the snapshot stores; and the
// partition_point slice search must not trip any rule.  This pins the
// heuristics against false positives on the substrate's hottest loop.
#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

struct Edge {
  std::size_t u;
  std::size_t v;
};

// Distilled blocked sweep: for each node block [lo, hi), apply the edge
// slice whose canonical endpoints fall inside the block, then run the
// cache-resident epilogue over the block while it is still hot.
double blocked_sweep(const std::vector<Edge>& edges, std::vector<double>& load,
                     std::vector<double>& snapshot, std::size_t block_width) {
  const std::size_t n = load.size();
  snapshot = load;
  double folded = 0.0;
  std::size_t k = 0;  // edge cursor: monotone across blocks, never rewinds
  for (std::size_t lo = 0; lo < n; lo += block_width) {
    const std::size_t hi = std::min(lo + block_width, n);
    // Edges are sorted by canonical u < v, so the block's slice end is a
    // partition point — found once, keeping the hot loop single-condition.
    const std::size_t k_end = static_cast<std::size_t>(
        std::partition_point(
            edges.begin() + static_cast<std::ptrdiff_t>(k), edges.end(),
            [hi](const Edge& e) { return e.u < hi; }) -
        edges.begin());
    for (; k < k_end; ++k) {
      const Edge& e = edges[k];
      const double f = 0.25 * (snapshot[e.u] - snapshot[e.v]);
      const double amount = std::fabs(f);
      if (f > 0.0) {
        load[e.u] -= amount;  // disjoint canonical-endpoint writes
        load[e.v] += amount;
      } else {
        load[e.v] -= amount;
        load[e.u] += amount;
      }
    }
    // Block epilogue: fold the summary and refresh the snapshot for the
    // next round from the same (cache-resident) load read.
    for (std::size_t u = lo; u < hi; ++u) {
      const double v = load[u];
      folded += v;
      snapshot[u] = v;
    }
  }
  return folded;
}
