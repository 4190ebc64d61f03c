#include "lb/check/invariants.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace lb::check {

namespace {

// Slack multiplier on the IEEE worst-case drift bound for continuous
// conservation.  The bound itself (ε·scale per paired ±f application) is
// already conservative; the slack absorbs the Σ|ℓ| scale being measured
// once at run start while loads spread during the run.
constexpr double kDriftSlack = 64.0;

std::string format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  char buf[512];
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return std::string(buf);
}

[[noreturn]] void violated(const std::string& what) {
  throw InvariantViolation(what);
}

}  // namespace

bool env_enabled() {
  static const bool enabled = [] {
    const char* v = std::getenv("LB_CHECK");
    return v != nullptr && v[0] != '\0' && !(v[0] == '0' && v[1] == '\0');
  }();
  return enabled;
}

// ---------------------------------------------------------------------------
// Conservation
// ---------------------------------------------------------------------------

template <class T>
ConservationBaseline<T> conservation_baseline(const std::vector<T>& load) {
  ConservationBaseline<T> b;
  double abs_sum = 0.0;
  for (const T v : load) {
    b.total += v;
    abs_sum += std::fabs(static_cast<double>(v));
  }
  b.abs_scale = std::max(1.0, abs_sum);
  return b;
}

template <class T>
void check_conservation(const ConservationBaseline<T>& baseline,
                        const std::vector<T>& load, std::size_t round,
                        std::size_t links, const char* where, T net_stream) {
  // Ledgered reference: what the books say the total must be now.
  const T expected = baseline.total + net_stream;
  T total{};
  for (const T v : load) total += v;
  if constexpr (std::is_integral_v<T>) {
    if (total != expected) {
      violated(format("conservation violated (%s): round %zu: total %" PRId64
                      " != ledgered total %" PRId64 " (run-start %" PRId64
                      " + net stream %" PRId64 "; delta %" PRId64
                      "); discrete load must be preserved to 0 ULP",
                      where, round, static_cast<std::int64_t>(total),
                      static_cast<std::int64_t>(expected),
                      static_cast<std::int64_t>(baseline.total),
                      static_cast<std::int64_t>(net_stream),
                      static_cast<std::int64_t>(total - expected)));
    }
  } else {
    const double drift =
        std::fabs(static_cast<double>(total) - static_cast<double>(expected));
    const double eps = std::numeric_limits<double>::epsilon();
    // The stream widens the natural error scale: the load that flowed
    // through the system contributes rounding error of its own order.
    const double scale =
        baseline.abs_scale + std::fabs(static_cast<double>(net_stream));
    const double allowed =
        kDriftSlack * eps * scale *
        (1.0 + static_cast<double>(round) * (static_cast<double>(links) + 1.0));
    if (!(drift <= allowed)) {  // !(<=) also catches NaN totals
      violated(format("conservation violated (%s): round %zu: total %.17g "
                      "drifted %.3g from ledgered total %.17g (run-start "
                      "%.17g + net stream %.17g; allowed %.3g for %zu links)",
                      where, round, static_cast<double>(total), drift,
                      static_cast<double>(expected),
                      static_cast<double>(baseline.total),
                      static_cast<double>(net_stream), allowed, links));
    }
  }
}

template <class T>
void check_conservation(const ConservationBaseline<T>& baseline,
                        const std::vector<T>& load, std::size_t round,
                        std::size_t links, const char* where) {
  check_conservation(baseline, load, round, links, where, T{});
}

// ---------------------------------------------------------------------------
// FlowProgram antisymmetry
// ---------------------------------------------------------------------------

template <class T>
void check_flow_antisymmetry(const core::FlowProgram<T>& program,
                             const graph::TopologyFrame& frame,
                             const std::vector<T>& load, std::size_t round) {
  if (program.flow == nullptr) {
    violated(format("flow antisymmetry: round %zu: planned program has no "
                    "flow function",
                    round));
  }
  const auto& edges = frame.base().edges();
  const auto check_edge = [&](std::size_t k) {
    const graph::Edge& e = edges[k];
    const double lu = static_cast<double>(load[e.u]);
    const double lv = static_cast<double>(load[e.v]);
    const double f = program.flow(k, e, lu, lv);
    const graph::Edge rev{e.v, e.u};
    const double g = program.flow(k, rev, lv, lu);
    // A NaN on one side only is a violation; NaN both ways is the
    // antisymmetric image of a non-finite load, which the engines report
    // as RunResult::non_finite after the round instead.
    if (!(g == -f) && !(std::isnan(f) && std::isnan(g))) {
      violated(format("flow antisymmetry violated: round %zu edge %zu "
                      "(%u,%u): flow(u,v)=%.17g but flow(v,u)=%.17g "
                      "(expected %.17g)",
                      round, k, e.u, e.v, f, g, -f));
    }
  };
  if (program.support == core::FlowProgram<T>::Support::kMatching) {
    for (const std::uint32_t k : program.matched) check_edge(k);
  } else {
    for (std::size_t k = 0; k < edges.size(); ++k) {
      if (!frame.alive(k)) continue;
      check_edge(k);
    }
  }
}

// ---------------------------------------------------------------------------
// Halo mirror equality
// ---------------------------------------------------------------------------

namespace {

const shard::HaloLink* find_link(const shard::DomainPlan& plan,
                                 std::uint32_t peer) {
  for (const shard::HaloLink& l : plan.links) {
    if (l.peer == peer) return &l;
  }
  return nullptr;
}

template <class V>
void check_mirrored_list(const std::vector<V>& send, const std::vector<V>& recv,
                         std::size_t a, std::size_t b, const char* kind) {
  if (send.size() != recv.size()) {
    violated(format("halo mirror violated: domains (%zu,%zu): %s count %zu on "
                    "the sending side but %zu on the receiving side",
                    a, b, kind, send.size(), recv.size()));
  }
  for (std::size_t i = 0; i < send.size(); ++i) {
    if (send[i] != recv[i]) {
      violated(format("halo mirror violated: domains (%zu,%zu): %s entry %zu "
                      "is %llu on the sending side but %llu on the receiving "
                      "side",
                      a, b, kind, i,
                      static_cast<unsigned long long>(send[i]),
                      static_cast<unsigned long long>(recv[i])));
    }
  }
}

}  // namespace

void check_halo_mirrors(const std::vector<shard::DomainPlan>& plans) {
  for (std::size_t a = 0; a < plans.size(); ++a) {
    for (const shard::HaloLink& l : plans[a].links) {
      if (l.peer >= plans.size()) {
        violated(format("halo mirror violated: domain %zu links to "
                        "nonexistent peer %u",
                        a, l.peer));
      }
      const shard::HaloLink* m = find_link(plans[l.peer], static_cast<std::uint32_t>(a));
      if (m == nullptr) {
        violated(format("halo mirror violated: domain %zu links to peer %u "
                        "but the peer has no mirror link back",
                        a, l.peer));
      }
      check_mirrored_list(l.send_nodes, m->recv_nodes, a, l.peer, "load-node");
      check_mirrored_list(l.recv_nodes, m->send_nodes, a, l.peer, "load-node");
      check_mirrored_list(l.send_flow_edges, m->recv_flow_edges, a, l.peer,
                          "flow-edge");
      check_mirrored_list(l.recv_flow_edges, m->send_flow_edges, a, l.peer,
                          "flow-edge");
    }
  }
}

void check_halo_mirrors(const shard::HaloExchange& halo) {
  check_halo_mirrors(halo.plans());
}

void check_domain_plan(const graph::Graph& base,
                       const std::vector<std::uint32_t>& owner, std::size_t d,
                       const core::SegmentLayout& segs,
                       const std::vector<shard::DomainPlan>& plans) {
  const auto& edges = base.edges();
  const std::size_t n = base.num_nodes();
  const core::PartitionLayout& L = segs.segments;
  const std::size_t S = L.parts();
  if (d + 1 >= segs.unit_begin.size() || segs.unit_begin.back() != segs.unit_segments.size() ||
      segs.owner.size() != S || segs.cut_from.size() != L.cut_edges.size() ||
      segs.cut_to.size() != L.cut_edges.size() ||
      segs.load_slot.size() != L.cut_edges.size() ||
      segs.flow_slot.size() != L.cut_edges.size() || plans.size() + 1 != segs.unit_begin.size()) {
    violated(format("domain plan: domain %zu: segment tables have inconsistent shapes", d));
  }

  // The segments cover exactly the nodes d owns: ascending, disjoint,
  // maximal runs of d-owned ids whose sizes add up to d's node count.
  const auto dom = static_cast<std::uint32_t>(d);
  std::vector<std::uint32_t> seg_of(n, core::SegmentLayout::kLocal);
  std::size_t covered = 0;
  for (std::size_t i = segs.unit_begin[d]; i < segs.unit_begin[d + 1]; ++i) {
    const std::uint32_t s = segs.unit_segments[i];
    if (s >= S || segs.owner[s] != dom ||
        (i > segs.unit_begin[d] && segs.unit_segments[i - 1] >= s)) {
      violated(format("domain plan: domain %zu: segment entry %zu is out of range, "
                      "out of order, or owned by another domain",
                      d, i));
    }
    const std::size_t lo = L.node_begin[s];
    const std::size_t hi = L.node_begin[s + 1];
    if (lo >= hi || hi > n || (lo > 0 && owner[lo - 1] == dom) ||
        (hi < n && owner[hi] == dom)) {
      violated(format("domain plan: domain %zu: segment %u [%zu, %zu) is empty or "
                      "not a maximal run of the domain's nodes",
                      d, s, lo, hi));
    }
    for (std::size_t u = lo; u < hi; ++u) {
      if (owner[u] != dom) {
        violated(format("domain plan: domain %zu: segment %u holds node %zu, owned "
                        "by domain %u",
                        d, s, u, owner[u]));
      }
      seg_of[u] = s;
    }
    covered += hi - lo;
  }
  const auto owned = static_cast<std::size_t>(std::count(owner.begin(), owner.end(), dom));
  if (covered != owned) {
    violated(format("domain plan: domain %zu: segments cover %zu nodes, the domain "
                    "owns %zu",
                    d, covered, owned));
  }

  // Outgoing cut edges: endpoint domains, and each remote edge's halo
  // slots pointing at its v in the load payload d receives and at its id
  // in the flow payload the peer receives.
  for (std::size_t i = segs.unit_begin[d]; i < segs.unit_begin[d + 1]; ++i) {
    const std::uint32_t s = segs.unit_segments[i];
    for (std::size_t c = L.cut_begin[s]; c < L.cut_begin[s + 1]; ++c) {
      const std::uint32_t k = L.cut_edges[c];
      const graph::Edge& e = edges[k];
      if (segs.cut_from[c] != dom || segs.cut_to[c] != owner[e.v]) {
        violated(format("domain plan: domain %zu: cut edge %u (%u,%u) records domains "
                        "(%u,%u)",
                        d, k, e.u, e.v, segs.cut_from[c], segs.cut_to[c]));
      }
      if (segs.cut_to[c] == dom) continue;
      const shard::HaloLink* out = find_link(plans[d], segs.cut_to[c]);
      const shard::HaloLink* in = find_link(plans[segs.cut_to[c]], dom);
      const std::uint32_t ls = segs.load_slot[c];
      const std::uint32_t fs = segs.flow_slot[c];
      if (out == nullptr || ls >= out->recv_nodes.size() || out->recv_nodes[ls] != e.v) {
        violated(format("domain plan: domain %zu: cut edge %u (%u,%u): load slot %u "
                        "does not hold node %u in the halo from domain %u",
                        d, k, e.u, e.v, ls, e.v, segs.cut_to[c]));
      }
      if (in == nullptr || fs >= in->recv_flow_edges.size() ||
          in->recv_flow_edges[fs] != k) {
        violated(format("domain plan: domain %zu: cut edge %u (%u,%u): flow slot %u "
                        "does not hold the edge in domain %u's inbox",
                        d, k, e.u, e.v, fs, segs.cut_to[c]));
      }
    }
  }

  // Each segment's incoming list is exactly its cut edges, ascending.
  std::vector<std::size_t> next(S, 0);
  for (std::size_t k = 0; k < edges.size(); ++k) {
    const graph::Edge& e = edges[k];
    const std::uint32_t s = seg_of[e.v];
    if (s == core::SegmentLayout::kLocal || e.u >= L.node_begin[s]) continue;
    const std::size_t i = L.in_begin[s] + next[s]++;
    if (i >= L.in_begin[s + 1] || L.incoming[i] >= L.cut_edges.size() ||
        L.cut_edges[L.incoming[i]] != k) {
      violated(format("domain plan: domain %zu: segment %u's incoming list does not "
                      "hold cut edge %zu (%u,%u) at entry %zu",
                      d, s, k, e.u, e.v, i));
    }
  }
  for (std::size_t i = segs.unit_begin[d]; i < segs.unit_begin[d + 1]; ++i) {
    const std::uint32_t s = segs.unit_segments[i];
    if (L.in_begin[s] + next[s] != L.in_begin[s + 1]) {
      violated(format("domain plan: domain %zu: segment %u lists %zu incoming cut "
                      "edges, %zu cross into it",
                      d, s, L.in_begin[s + 1] - L.in_begin[s], next[s]));
    }
  }
}

void check_domain_plan(const graph::Graph& base,
                       const std::vector<std::uint32_t>& owner, std::size_t d,
                       const shard::HaloExchange& halo) {
  check_domain_plan(base, owner, d, halo.segments(), halo.plans());
}

// ---------------------------------------------------------------------------
// Comm accounting
// ---------------------------------------------------------------------------

template <class T>
std::vector<RoundCommExpectation> expected_all_edges_round_comm(
    const std::vector<shard::DomainPlan>& plans,
    const graph::TopologyFrame& frame) {
  std::vector<RoundCommExpectation> expected(plans.size());
  for (std::size_t d = 0; d < plans.size(); ++d) {
    RoundCommExpectation& e = expected[d];
    for (const shard::HaloLink& l : plans[d].links) {
      // Phase A: one load payload per nonempty recv_nodes link.  Node
      // halos are a function of the topology alone, mask ignored
      // (sharded_engine.cpp phase A).
      if (!l.recv_nodes.empty()) {
        e.messages += 1;
        e.bytes += l.recv_nodes.size() * sizeof(T);
      }
      // Phase B: one flow payload per link with >= 1 alive incoming cut
      // edge; dead edges ship nothing.
      std::size_t alive = 0;
      for (const std::uint32_t k : l.recv_flow_edges) {
        if (frame.alive(k)) ++alive;
      }
      if (alive > 0) {
        e.messages += 1;
        e.bytes += alive * sizeof(double);
      }
    }
  }
  return expected;
}

template <class T>
std::vector<RoundCommExpectation> expected_matching_round_comm(
    const std::vector<std::uint32_t>& matched,
    const std::vector<graph::Edge>& edges,
    const std::vector<std::uint32_t>& owner, std::size_t domains) {
  std::vector<RoundCommExpectation> expected(domains);
  // Per-superstep nonempty-channel tracking: a channel that carries j
  // values in a superstep still counts as ONE message at the barrier.
  std::vector<std::uint8_t> channel_used(domains * domains, 0);
  const auto mark = [&](std::size_t from, std::size_t to, std::size_t bytes) {
    expected[to].bytes += bytes;
    std::uint8_t& used = channel_used[from * domains + to];
    if (used == 0) {
      used = 1;
      expected[to].messages += 1;
    }
  };
  // Phase A: v-side ships load[e.v] (one T) to owner(e.u) per cut edge.
  for (const std::uint32_t k : matched) {
    const graph::Edge& e = edges[k];
    if (owner[e.u] == owner[e.v]) continue;
    mark(owner[e.v], owner[e.u], sizeof(T));
  }
  std::fill(channel_used.begin(), channel_used.end(), 0);
  // Phase B: owner(e.u) ships the computed flow (one double) back.
  for (const std::uint32_t k : matched) {
    const graph::Edge& e = edges[k];
    if (owner[e.u] == owner[e.v]) continue;
    mark(owner[e.u], owner[e.v], sizeof(double));
  }
  return expected;
}

void check_comm_accounting(const std::vector<RoundCommExpectation>& expected,
                           const std::vector<sim::CommTotals>& before,
                           const std::vector<sim::CommTotals>& after,
                           std::size_t round) {
  for (std::size_t d = 0; d < expected.size(); ++d) {
    const std::uint64_t messages = after[d].messages - before[d].messages;
    const std::uint64_t bytes = after[d].boundary_bytes - before[d].boundary_bytes;
    if (messages != expected[d].messages) {
      violated(format("comm accounting violated: round %zu domain %zu: "
                      "received %" PRIu64 " messages, halo plan expects %" PRIu64,
                      round, d, messages, expected[d].messages));
    }
    if (bytes != expected[d].bytes) {
      violated(format("comm accounting violated: round %zu domain %zu: "
                      "received %" PRIu64 " boundary bytes, halo plan expects "
                      "%" PRIu64,
                      round, d, bytes, expected[d].bytes));
    }
  }
}

// ---------------------------------------------------------------------------
// CSR / EdgeMask well-formedness
// ---------------------------------------------------------------------------

void check_csr_slice(const graph::Graph& base,
                     const util::IndexArray& row_ptr,
                     const std::vector<std::uint32_t>& edge_idx,
                     const std::vector<std::int8_t>& sign) {
  const std::size_t n = base.num_nodes();
  const auto& edges = base.edges();
  if (row_ptr.size() != n + 1 || row_ptr.front() != 0 ||
      row_ptr.back() != edge_idx.size() || sign.size() != edge_idx.size() ||
      edge_idx.size() != 2 * edges.size()) {
    violated(format("csr: ledger shapes inconsistent: %zu nodes, %zu edges, "
                    "row_ptr %zu entries, %zu incident slots, %zu signs",
                    n, edges.size(), row_ptr.size(), edge_idx.size(),
                    sign.size()));
  }
  std::vector<std::uint8_t> seen(edges.size(), 0);
  for (std::size_t u = 0; u < n; ++u) {
    const auto row_begin = static_cast<std::size_t>(row_ptr[u]);
    const auto row_end = static_cast<std::size_t>(row_ptr[u + 1]);
    if (row_begin > row_end) {
      violated(format("csr: ledger row_ptr not monotone at node %zu", u));
    }
    for (std::size_t p = row_begin; p < row_end; ++p) {
      const std::uint32_t k = edge_idx[p];
      if (k >= edges.size()) {
        violated(format("csr: ledger node %zu: edge id %u out of range", u, k));
      }
      if (p > row_begin && edge_idx[p - 1] >= k) {
        violated(format("csr: ledger node %zu: incident edge ids not strictly "
                        "ascending at slot %zu",
                        u, p));
      }
      const graph::Edge& e = edges[k];
      if (e.u != u && e.v != u) {
        violated(format("csr: ledger node %zu is not an endpoint of its "
                        "incident edge %u (%u,%u)",
                        u, k, e.u, e.v));
      }
      const int expected_sign = (e.u == u) ? -1 : 1;
      if (sign[p] != expected_sign) {
        violated(format("csr: ledger node %zu: orientation sign for edge %u "
                        "(%u,%u) is %d, expected %d",
                        u, k, e.u, e.v, static_cast<int>(sign[p]), expected_sign));
      }
      ++seen[k];
    }
  }
  for (std::size_t k = 0; k < edges.size(); ++k) {
    if (seen[k] != 2) {
      violated(format("csr: ledger edge %zu (%u,%u) appears %u times across "
                      "node rows, expected exactly 2",
                      k, edges[k].u, edges[k].v, seen[k]));
    }
  }
}

void check_ledger(const core::FlowLedger& ledger, const graph::Graph& base) {
  if (!ledger.valid_for(base)) {
    violated(format("csr: ledger checked against a graph it was not built "
                    "for (ledger %zu nodes / %zu edges, graph %zu / %zu)",
                    ledger.num_nodes(), ledger.num_edges(), base.num_nodes(),
                    base.num_edges()));
  }
  check_csr_slice(base, ledger.row_ptr(), ledger.edge_indices(), ledger.signs());
}

void check_partition_plan(const core::PartitionLayout& plan, const graph::Graph& base,
                          bool chunk_aligned) {
  const std::size_t n = base.num_nodes();
  const auto& edges = base.edges();
  const std::size_t parts = plan.parts();
  const std::size_t chunks = core::summary_chunk_count(n);
  if (parts == 0 || plan.chunk_edges.size() != chunks + 1 ||
      plan.part_edges.size() != parts + 1 ||
      plan.cut_begin.size() != parts + 1 || plan.in_begin.size() != parts + 1 ||
      plan.incoming.size() != plan.cut_edges.size() || plan.node_begin.front() != 0 ||
      plan.node_begin.back() != n) {
    violated(format("partition plan: shapes inconsistent: %zu partitions over "
                    "[%zu, %zu) for %zu nodes, %zu chunk boundaries, %zu cut "
                    "edges, %zu incoming entries",
                    parts, plan.node_begin.front(), plan.node_begin.back(), n,
                    plan.chunk_edges.size(), plan.cut_edges.size(),
                    plan.incoming.size()));
  }
  std::vector<std::uint32_t> owner(n);
  for (std::size_t p = 0; p < parts; ++p) {
    const std::size_t lo = plan.node_begin[p];
    const std::size_t hi = plan.node_begin[p + 1];
    if ((chunk_aligned && lo % core::kSummaryChunkWidth != 0) || hi > n ||
        (lo >= hi && n != 0)) {
      violated(format("partition plan: partition %zu range [%zu, %zu) is empty "
                      "or not aligned to the %zu-node chunk",
                      p, lo, hi, core::kSummaryChunkWidth));
    }
    std::fill(owner.begin() + static_cast<std::ptrdiff_t>(lo),
              owner.begin() + static_cast<std::ptrdiff_t>(hi),
              static_cast<std::uint32_t>(p));
  }
  // Chunk slices, and the cut list recomputed: ascending, grouped by the
  // owner of u.
  std::size_t cut = 0;
  for (std::size_t k = 0; k < edges.size(); ++k) {
    const graph::Edge& e = edges[k];
    const std::size_t chunk = e.u / core::kSummaryChunkWidth;
    if (k < plan.chunk_edges[chunk] || k >= plan.chunk_edges[chunk + 1]) {
      violated(format("partition plan: edge %zu (%u,%u) lies outside chunk %zu's "
                      "edge slice",
                      k, e.u, e.v, chunk));
    }
    if (k < plan.part_edges[owner[e.u]] || k >= plan.part_edges[owner[e.u] + 1]) {
      violated(format("partition plan: edge %zu (%u,%u) lies outside partition %u's "
                      "edge slice",
                      k, e.u, e.v, owner[e.u]));
    }
    if (owner[e.u] == owner[e.v]) continue;
    if (cut >= plan.cut_edges.size() || plan.cut_edges[cut] != k ||
        cut < plan.cut_begin[owner[e.u]] || cut >= plan.cut_begin[owner[e.u] + 1]) {
      violated(format("partition plan: cut edge %zu (%u,%u) is not listed at "
                      "position %zu among partition %u's outgoing cuts",
                      k, e.u, e.v, cut, owner[e.u]));
    }
    ++cut;
  }
  if (cut != plan.cut_edges.size() || plan.cut_begin.front() != 0 ||
      plan.cut_begin.back() != cut) {
    violated(format("partition plan: %zu cut edges listed, %zu recomputed",
                    plan.cut_edges.size(), cut));
  }
  // Every cut edge exactly once, ascending, in the incoming list of the
  // owner of its v.
  std::vector<std::uint8_t> seen(cut, 0);
  for (std::size_t q = 0; q < parts; ++q) {
    for (std::size_t i = plan.in_begin[q]; i < plan.in_begin[q + 1]; ++i) {
      const std::uint32_t pos = i < plan.incoming.size() ? plan.incoming[i] : 0;
      if (i >= plan.incoming.size() || pos >= cut ||
          owner[edges[plan.cut_edges[pos]].v] != q ||
          (i > plan.in_begin[q] && plan.incoming[i - 1] >= pos) || seen[pos]++ != 0) {
        violated(format("partition plan: partition %zu incoming entry %zu is out "
                        "of range, out of order, repeated, or not owned",
                        q, i));
      }
    }
  }
  const auto missing = std::find(seen.begin(), seen.end(), 0);
  if (missing != seen.end()) {
    violated(format("partition plan: cut edge %u is in no incoming list",
                    plan.cut_edges[static_cast<std::size_t>(missing - seen.begin())]));
  }
}

void check_mask_arrays(const graph::Graph& base,
                       const std::vector<std::uint8_t>& alive,
                       std::size_t claimed_alive_edges,
                       const std::vector<std::uint32_t>& claimed_degrees,
                       std::size_t claimed_max, std::size_t claimed_min) {
  const auto& edges = base.edges();
  if (alive.size() != edges.size() || claimed_degrees.size() != base.num_nodes()) {
    violated(format("edge mask inconsistent: %zu alive bits for %zu base "
                    "edges, %zu degrees for %zu nodes",
                    alive.size(), edges.size(), claimed_degrees.size(),
                    base.num_nodes()));
  }
  std::size_t alive_edges = 0;
  std::vector<std::uint32_t> degrees(base.num_nodes(), 0);
  for (std::size_t k = 0; k < edges.size(); ++k) {
    if (alive[k] == 0) continue;
    ++alive_edges;
    ++degrees[edges[k].u];
    ++degrees[edges[k].v];
  }
  if (alive_edges != claimed_alive_edges) {
    violated(format("edge mask inconsistent: bitmap has %zu alive edges but "
                    "the mask claims %zu",
                    alive_edges, claimed_alive_edges));
  }
  std::size_t max_deg = 0;
  std::size_t min_deg = base.num_nodes() == 0 ? 0 : degrees[0];
  for (std::size_t u = 0; u < degrees.size(); ++u) {
    if (degrees[u] != claimed_degrees[u]) {
      violated(format("edge mask inconsistent: node %zu alive-degree is %u "
                      "by recount but the mask claims %u",
                      u, degrees[u], claimed_degrees[u]));
    }
    max_deg = std::max<std::size_t>(max_deg, degrees[u]);
    min_deg = std::min<std::size_t>(min_deg, degrees[u]);
  }
  if (max_deg != claimed_max || min_deg != claimed_min) {
    violated(format("edge mask inconsistent: recounted degree range [%zu,%zu] "
                    "but the mask claims [%zu,%zu]",
                    min_deg, max_deg, claimed_min, claimed_max));
  }
}

void check_mask(const graph::EdgeMask& mask) {
  const graph::Graph& base = mask.base();
  std::vector<std::uint8_t> alive(base.num_edges());
  for (std::size_t k = 0; k < alive.size(); ++k) {
    alive[k] = mask.alive(k) ? 1 : 0;
  }
  std::vector<std::uint32_t> degrees(base.num_nodes());
  for (std::size_t u = 0; u < degrees.size(); ++u) {
    degrees[u] =
        static_cast<std::uint32_t>(mask.alive_degree(static_cast<graph::NodeId>(u)));
  }
  check_mask_arrays(base, alive, mask.alive_edges(), degrees,
                    mask.max_alive_degree(), mask.min_alive_degree());
}

// ---------------------------------------------------------------------------

#define LB_INSTANTIATE(T)                                                      \
  template ConservationBaseline<T> conservation_baseline<T>(                   \
      const std::vector<T>&);                                                  \
  template void check_conservation<T>(const ConservationBaseline<T>&,          \
                                      const std::vector<T>&, std::size_t,      \
                                      std::size_t, const char*);               \
  template void check_conservation<T>(const ConservationBaseline<T>&,          \
                                      const std::vector<T>&, std::size_t,      \
                                      std::size_t, const char*, T);            \
  template void check_flow_antisymmetry<T>(const core::FlowProgram<T>&,        \
                                           const graph::TopologyFrame&,        \
                                           const std::vector<T>&, std::size_t); \
  template std::vector<RoundCommExpectation> expected_all_edges_round_comm<T>( \
      const std::vector<shard::DomainPlan>&, const graph::TopologyFrame&);     \
  template std::vector<RoundCommExpectation> expected_matching_round_comm<T>(  \
      const std::vector<std::uint32_t>&, const std::vector<graph::Edge>&,      \
      const std::vector<std::uint32_t>&, std::size_t);

LB_INSTANTIATE(double)
LB_INSTANTIATE(std::int64_t)
#undef LB_INSTANTIATE

}  // namespace lb::check
