// Equivalence suite for the partitioned fused round (DESIGN.md §9.6):
// every all-edges balancer — diffusion, FOS, SOS, async, heterogeneous —
// stepped through run_edge_flow_round at pools {1, 2, 3, 4, hw} must
// produce loads, the fused summary and StepStats bit-equal to the
// kEdgeSweep oracle (the seed's sequential edge sweep on the materialized
// round graph), on graphs whose cut edges stress the partition plan:
// torus (wrap edges span every partition), hypercube, Erdős–Rényi (most
// edges cut), n not a multiple of the 1024-node chunk, and n < P·1024.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "lb/core/async.hpp"
#include "lb/core/diffusion.hpp"
#include "lb/core/engine.hpp"
#include "lb/core/flow_ledger.hpp"
#include "lb/core/fos.hpp"
#include "lb/core/heterogeneous.hpp"
#include "lb/core/metrics.hpp"
#include "lb/core/round_context.hpp"
#include "lb/core/sos.hpp"
#include "lb/graph/edge_mask.hpp"
#include "lb/graph/generators.hpp"
#include "lb/shard/sharded_engine.hpp"
#include "lb/util/rng.hpp"
#include "lb/util/thread_pool.hpp"
#include "lb/workload/initial.hpp"

namespace {

using lb::core::ApplyPath;
using lb::core::Balancer;
using lb::core::LoadSummary;
using lb::core::RoundContext;
using lb::core::RunArena;
using lb::core::StepStats;
using lb::core::SummaryMode;
using lb::graph::Graph;
using lb::graph::TopologyFrame;

constexpr int kRounds = 4;

template <class T>
bool same_bits(const T& a, const T& b) {
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

template <class T>
::testing::AssertionResult loads_equal(const std::vector<T>& a, const std::vector<T>& b) {
  if (a.size() != b.size()) return ::testing::AssertionFailure() << "size mismatch";
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same_bits(a[i], b[i])) {
      return ::testing::AssertionFailure()
             << "first divergence at node " << i << ": " << a[i] << " vs " << b[i];
    }
  }
  return ::testing::AssertionSuccess();
}

template <class T>
::testing::AssertionResult summaries_equal(const LoadSummary<T>& a,
                                           const LoadSummary<T>& b) {
  if (same_bits(a.total, b.total) && same_bits(a.potential, b.potential) &&
      same_bits(a.min, b.min) && same_bits(a.max, b.max) &&
      same_bits(a.discrepancy, b.discrepancy) && same_bits(a.average, b.average)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << "summary differs: potential " << a.potential << " vs " << b.potential
         << ", discrepancy " << a.discrepancy << " vs " << b.discrepancy;
}

/// Pools {1, 2, 3, 4, hw}, built once for the whole suite.
const std::vector<std::unique_ptr<lb::util::ThreadPool>>& pools() {
  static const auto* all = [] {
    auto* v = new std::vector<std::unique_ptr<lb::util::ThreadPool>>();
    for (const std::size_t threads : {1, 2, 3, 4, 0}) {
      v->push_back(std::make_unique<lb::util::ThreadPool>(threads));
    }
    return v;
  }();
  return *all;
}

struct GraphCase {
  std::string label;
  Graph graph;
};

std::vector<GraphCase> graphs() {
  lb::util::Rng rng(11);
  std::vector<GraphCase> out;
  out.push_back({"torus96x64", lb::graph::make_torus2d(96, 64)});
  out.push_back({"hypercube13", lb::graph::make_hypercube(13)});
  out.push_back({"er3000", lb::graph::make_erdos_renyi(3000, 0.004, rng, true)});
  out.push_back({"torus75x61", lb::graph::make_torus2d(75, 61)});
  out.push_back({"torus40x50", lb::graph::make_torus2d(40, 50)});
  return out;
}

/// A mask that kills about a fifth of the base edges and flips a few
/// more every round (one new mask revision per round).
class Churn {
 public:
  explicit Churn(const Graph& g) : mask_(g), rng_(g.num_edges() + 3) {
    for (std::size_t k = 0; k < g.num_edges(); ++k) {
      if (rng_.next_bool(0.2)) mask_.set_alive(k, false);
    }
    mask_.commit();
  }
  void advance() {
    for (int i = 0; i < 16; ++i) {
      const std::size_t k = rng_.next_below(mask_.num_base_edges());
      mask_.set_alive(k, !mask_.alive(k));
    }
    mask_.commit();
  }
  TopologyFrame frame() const { return TopologyFrame(mask_); }

 private:
  lb::graph::EdgeMask mask_;
  lb::util::Rng rng_;
};

template <class T>
using Factory = std::function<std::unique_ptr<Balancer<T>>()>;
/// One oracle round on ctx.frame(), mutating `load`.
template <class T>
using OracleStep = std::function<StepStats(RoundContext<T>&, std::vector<T>&)>;

/// Step the executor at every pool and the oracle side by side for
/// kRounds rounds on `g` (masked with churn when `masked`), asserting
/// bit-equal loads, summary and StepStats after every round.
template <class T>
void expect_matches_oracle(const GraphCase& gc, bool masked, const Factory<T>& make,
                           const OracleStep<T>& oracle_step, const std::string& label) {
  SCOPED_TRACE(label + "/" + gc.label + (masked ? "/masked" : "/full"));
  const Graph& g = gc.graph;
  lb::util::Rng wrng(g.num_nodes());
  const std::vector<T> load0 = lb::workload::bimodal<T>(
      g.num_nodes(), static_cast<T>(1000 * g.num_nodes()), wrng);
  double total = 0.0;
  for (const T v : load0) total += static_cast<double>(v);
  const double average = total / static_cast<double>(g.num_nodes());

  struct Leg {
    lb::util::ThreadPool* pool;
    std::unique_ptr<Balancer<T>> alg;
    RunArena<T> arena;
    lb::util::Rng rng{77};
    std::vector<T> load;
  };
  std::vector<std::unique_ptr<Leg>> legs;
  for (const auto& pool : pools()) {
    auto leg = std::make_unique<Leg>();
    leg->pool = pool.get();
    leg->alg = make();
    leg->load = load0;
    legs.push_back(std::move(leg));
  }
  RunArena<T> oracle_arena;
  lb::util::Rng oracle_rng(77);
  std::vector<T> oracle_load = load0;

  std::unique_ptr<Churn> churn = masked ? std::make_unique<Churn>(g) : nullptr;
  for (int round = 1; round <= kRounds; ++round) {
    if (churn && round > 1) churn->advance();
    const TopologyFrame frame = churn ? churn->frame() : TopologyFrame(g);
    RoundContext<T> octx(frame, oracle_rng, nullptr, oracle_arena);
    const StepStats expected = oracle_step(octx, oracle_load);
    const LoadSummary<T> expected_summary = lb::core::summarize_deterministic(
        oracle_load, average, nullptr, SummaryMode::kFull);
    for (const auto& leg : legs) {
      SCOPED_TRACE("round " + std::to_string(round) + " pool " +
                   std::to_string(leg->pool->size()));
      RoundContext<T> ctx(frame, leg->rng, leg->pool, leg->arena);
      ctx.request_summary(SummaryMode::kFull, average);
      const StepStats stats = leg->alg->step(ctx, leg->load);
      ASSERT_TRUE(loads_equal(oracle_load, leg->load));
      EXPECT_TRUE(same_bits(expected.transferred, stats.transferred))
          << expected.transferred << " vs " << stats.transferred;
      EXPECT_EQ(expected.active_edges, stats.active_edges);
      EXPECT_EQ(expected.links, stats.links);
      ASSERT_TRUE(ctx.has_summary());
      EXPECT_TRUE(summaries_equal(expected_summary, ctx.summary()));
    }
  }
}

/// The oracle for balancers with a kEdgeSweep configuration: that
/// configuration stepped sequentially.
template <class T>
OracleStep<T> edge_sweep_oracle(std::shared_ptr<Balancer<T>> sweep) {
  return [sweep](RoundContext<T>& ctx, std::vector<T>& load) {
    return sweep->step(ctx, load);
  };
}

template <class T>
void sweep_all_graphs(const Factory<T>& make, const Factory<T>& make_oracle,
                      const std::string& label) {
  for (const GraphCase& gc : graphs()) {
    for (const bool masked : {false, true}) {
      expect_matches_oracle<T>(gc, masked, make,
                               edge_sweep_oracle<T>(make_oracle()), label);
    }
  }
}

template <class T>
Factory<T> diffusion(ApplyPath apply, lb::core::DenominatorRule rule) {
  return [apply, rule]() -> std::unique_ptr<Balancer<T>> {
    lb::core::DiffusionConfig cfg;
    cfg.apply = apply;
    cfg.rule = rule;
    return std::make_unique<lb::core::DiffusionBalancer<T>>(cfg);
  };
}

/// The seed's edge sweep on the materialized round graph with a
/// test-local flow rule.
template <class T>
StepStats sweep_with(const Graph& g, std::vector<T>& load,
                     const std::function<double(const lb::graph::Edge&, double, double)>&
                         flow) {
  std::vector<double> flows(g.num_edges());
  for (std::size_t k = 0; k < flows.size(); ++k) {
    const lb::graph::Edge& e = g.edges()[k];
    flows[k] = flow(e, static_cast<double>(load[e.u]), static_cast<double>(load[e.v]));
  }
  StepStats stats;
  stats.links = g.num_edges();
  lb::core::apply_edge_sweep_with_stats(g, flows, load, stats);
  return stats;
}

TEST(PartitionedRound, DiffusionMatchesEdgeSweep) {
  using lb::core::DenominatorRule;
  sweep_all_graphs<double>(
      diffusion<double>(ApplyPath::kLedger, DenominatorRule::kFactorTimesMaxDegree),
      diffusion<double>(ApplyPath::kEdgeSweep, DenominatorRule::kFactorTimesMaxDegree),
      "diffusion-cont");
  sweep_all_graphs<std::int64_t>(
      diffusion<std::int64_t>(ApplyPath::kLedger, DenominatorRule::kFactorTimesMaxDegree),
      diffusion<std::int64_t>(ApplyPath::kEdgeSweep,
                              DenominatorRule::kFactorTimesMaxDegree),
      "diffusion-disc");
  sweep_all_graphs<std::int64_t>(
      diffusion<std::int64_t>(ApplyPath::kLedger, DenominatorRule::kDegreePlusOne),
      diffusion<std::int64_t>(ApplyPath::kEdgeSweep, DenominatorRule::kDegreePlusOne),
      "fos-disc");
}

TEST(PartitionedRound, FosMatchesEdgeSweep) {
  sweep_all_graphs<double>(
      [] { return std::make_unique<lb::core::FirstOrderScheme>(true, ApplyPath::kLedger); },
      [] {
        return std::make_unique<lb::core::FirstOrderScheme>(true, ApplyPath::kEdgeSweep);
      },
      "fos");
}

// Round 1 is SOS's plain FOS step (recording L^{t-1}); rounds 2..4 run
// the β-combine as the executor's post-combine.
TEST(PartitionedRound, SosFirstAndLaterRoundsMatchEdgeSweep) {
  sweep_all_graphs<double>(
      [] {
        return std::make_unique<lb::core::SecondOrderScheme>(1.6, true,
                                                             ApplyPath::kLedger);
      },
      [] {
        return std::make_unique<lb::core::SecondOrderScheme>(1.6, true,
                                                             ApplyPath::kEdgeSweep);
      },
      "sos");
}

constexpr double kP = 0.6;  // async activation probability

template <class T>
void async_case() {
  for (const GraphCase& gc : graphs()) {
    for (const bool masked : {false, true}) {
      const OracleStep<T> oracle = [](RoundContext<T>& ctx, std::vector<T>& load) {
        // The balancer's documented round: draw the active set node by
        // node, then Algorithm 1's flow for edges whose richer endpoint
        // is active, on the materialized round graph.
        std::vector<std::uint8_t> active(load.size());
        for (std::size_t u = 0; u < load.size(); ++u) {
          active[u] = ctx.rng().next_bool(kP) ? 1 : 0;
        }
        const Graph& g = ctx.graph();
        const lb::core::DiffusionConfig cfg;
        return sweep_with<T>(g, load, [&](const lb::graph::Edge& e, double li, double lj) {
          if (li == lj) return 0.0;
          if (!active[li > lj ? e.u : e.v]) return 0.0;
          double w = lb::core::diffusion_edge_weight(g, e.u, e.v, li, lj, cfg);
          if constexpr (std::is_integral_v<T>) w = std::floor(w);
          return li > lj ? w : -w;
        });
      };
      expect_matches_oracle<T>(
          gc, masked, [] { return std::make_unique<lb::core::AsyncDiffusion<T>>(kP); },
          oracle, "async");
    }
  }
}

TEST(PartitionedRound, AsyncMatchesEdgeSweep) {
  async_case<double>();
  async_case<std::int64_t>();
}

template <class T>
void heterogeneous_case() {
  for (const GraphCase& gc : graphs()) {
    lb::util::Rng srng(5);
    std::vector<double> speed(gc.graph.num_nodes());
    for (double& s : speed) s = srng.next_double(0.5, 4.0);
    for (const bool masked : {false, true}) {
      const OracleStep<T> oracle = [&speed](RoundContext<T>& ctx, std::vector<T>& load) {
        // Elsässer–Monien–Preis normalized-gap flow on the materialized
        // round graph's degrees.
        const Graph& g = ctx.graph();
        return sweep_with<T>(g, load, [&](const lb::graph::Edge& e, double li, double lj) {
          const double ni = li / speed[e.u];
          const double nj = lj / speed[e.v];
          if (ni == nj) return 0.0;
          const double harmonic =
              2.0 * speed[e.u] * speed[e.v] / (speed[e.u] + speed[e.v]);
          const double denom =
              4.0 * static_cast<double>(std::max(g.degree(e.u), g.degree(e.v)));
          double w = std::fabs(ni - nj) * harmonic / denom;
          if constexpr (std::is_integral_v<T>) w = std::floor(w);
          return ni > nj ? w : -w;
        });
      };
      expect_matches_oracle<T>(
          gc, masked,
          [&speed] { return std::make_unique<lb::core::HeterogeneousDiffusion<T>>(speed); },
          oracle, "heterogeneous");
    }
  }
}

TEST(PartitionedRound, HeterogeneousMatchesEdgeSweep) {
  heterogeneous_case<double>();
  heterogeneous_case<std::int64_t>();
}

/// Restores the process-wide block width on scope exit.
struct BlockWidthGuard {
  explicit BlockWidthGuard(long long width) {
    lb::core::set_blocked_width_override(width);
  }
  ~BlockWidthGuard() { lb::core::set_blocked_width_override(-1); }
};

// The block width only moves where each partition's epilogue runs: the
// flat sweep (0) and a one-chunk block agree with the oracle too.
TEST(PartitionedRound, BlockWidthsMatchEdgeSweep) {
  using lb::core::DenominatorRule;
  for (const long long width : {0LL, 1024LL}) {
    BlockWidthGuard guard(width);
    const GraphCase gc{"torus96x64", lb::graph::make_torus2d(96, 64)};
    expect_matches_oracle<std::int64_t>(
        gc, true,
        diffusion<std::int64_t>(ApplyPath::kLedger, DenominatorRule::kFactorTimesMaxDegree),
        edge_sweep_oracle<std::int64_t>(diffusion<std::int64_t>(
            ApplyPath::kEdgeSweep, DenominatorRule::kFactorTimesMaxDegree)()),
        "width" + std::to_string(width));
  }
}

// StepStats::transferred is the source-chunk fold (DESIGN.md §4): per
// 1024-node chunk of u, a left-to-right sum from zero in edge order, the
// chunk sums then added in chunk order.  Pinned here against a plain loop.
TEST(PartitionedRound, TransferredIsTheSourceChunkFold) {
  const Graph g = lb::graph::make_torus2d(96, 64);
  lb::util::Rng wrng(3);
  const std::vector<double> load0 =
      lb::workload::bimodal<double>(g.num_nodes(), 1000.0 * g.num_nodes(), wrng);

  const std::size_t chunks = (g.num_nodes() + 1023) / 1024;
  std::vector<double> chunk_sum(chunks, 0.0);
  std::vector<std::size_t> chunk_active(chunks, 0);
  double plain = 0.0;
  for (const lb::graph::Edge& e : g.edges()) {
    const double li = load0[e.u];
    const double lj = load0[e.v];
    if (li == lj) continue;
    const double w =
        std::fabs(li - lj) / (4.0 * static_cast<double>(std::max(g.degree(e.u),
                                                                 g.degree(e.v))));
    chunk_sum[e.u / 1024] += w;
    ++chunk_active[e.u / 1024];
    plain += w;
  }
  double expected = 0.0;
  std::size_t expected_active = 0;
  for (std::size_t c = 0; c < chunks; ++c) {
    expected += chunk_sum[c];
    expected_active += chunk_active[c];
  }

  for (const ApplyPath apply : {ApplyPath::kLedger, ApplyPath::kEdgeSweep}) {
    for (const auto& pool : pools()) {
      lb::core::DiffusionConfig cfg;
      cfg.apply = apply;
      lb::core::ContinuousDiffusion alg(cfg);
      RunArena<double> arena;
      lb::util::Rng rng(1);
      std::vector<double> load = load0;
      RoundContext<double> ctx(g, rng, pool.get(), arena);
      const StepStats stats = alg.step(ctx, load);
      EXPECT_TRUE(same_bits(expected, stats.transferred))
          << expected << " vs " << stats.transferred << " (plain sum " << plain << ")";
      EXPECT_EQ(expected_active, stats.active_edges);
    }
  }
}

// The sharded engine's central StepStats fold is the same definition.
TEST(PartitionedRound, ShardedTotalsMatchSharedMemory) {
  const Graph g = lb::graph::make_torus2d(96, 64);
  lb::util::Rng wrng(8);
  const std::vector<double> load0 =
      lb::workload::bimodal<double>(g.num_nodes(), 1000.0 * g.num_nodes(), wrng);
  lb::core::EngineConfig cfg;
  cfg.max_rounds = 6;
  cfg.target_potential = 0.0;
  cfg.pool = pools()[1].get();
  std::vector<double> shared_load = load0;
  auto a = lb::core::make_diffusion_continuous();
  const lb::core::RunResult shared = lb::core::run_static(*a, g, shared_load, cfg);
  for (const std::size_t k : {1, 3, 4}) {
    lb::shard::ShardConfig shard;
    shard.domains = k;
    std::vector<double> load = load0;
    auto b = lb::core::make_diffusion_continuous();
    const lb::core::RunResult sharded = lb::shard::run_static(*b, g, load, cfg, shard);
    ASSERT_EQ(shared.trace.size(), sharded.trace.size());
    for (std::size_t i = 0; i < shared.trace.size(); ++i) {
      EXPECT_TRUE(same_bits(shared.trace[i].transferred, sharded.trace[i].transferred))
          << "K=" << k << " round " << i;
      EXPECT_EQ(shared.trace[i].active_edges, sharded.trace[i].active_edges);
    }
    EXPECT_TRUE(loads_equal(shared_load, load));
  }
}

}  // namespace
