#include "lb/core/diffusion.hpp"

#include <cmath>
#include <sstream>

#include "lb/core/flow_program.hpp"
#include "lb/core/round_context.hpp"
#include "lb/util/assert.hpp"
#include "lb/util/thread_pool.hpp"

namespace lb::core {

double diffusion_edge_weight(const graph::Graph& g, graph::NodeId i, graph::NodeId j,
                             double load_i, double load_j, const DiffusionConfig& cfg) {
  double denom = 0.0;
  switch (cfg.rule) {
    case DenominatorRule::kFactorTimesMaxDegree:
      denom = cfg.factor * static_cast<double>(std::max(g.degree(i), g.degree(j)));
      break;
    case DenominatorRule::kDegreePlusOne:
      denom = static_cast<double>(g.max_degree()) + 1.0;
      break;
  }
  LB_DEBUG_ASSERT(denom > 0.0);
  return std::fabs(load_i - load_j) / denom;
}

namespace {

/// The masked round's flow: the denominator is computed inline from the
/// mask's alive-degree view.  It is the identical double the
/// materialized path derives from its subgraph degrees, so the flows —
/// and therefore the loads — are bit-identical to the rebuild oracle.
/// The frame must outlive the round (it lives in the sequence).
template <class T>
auto masked_flow(const graph::TopologyFrame& frame, const DiffusionConfig& cfg) {
  const double factor = cfg.factor;
  const double degree_plus_one = static_cast<double>(frame.max_degree()) + 1.0;
  const DenominatorRule rule = cfg.rule;
  return [&frame, factor, degree_plus_one, rule](std::size_t, const graph::Edge& e,
                                                 double li, double lj) {
    if (li == lj) return 0.0;
    const double denom =
        masked_diffusion_denominator(frame, e, rule, factor, degree_plus_one);
    double w = std::fabs(li - lj) / denom;
    if constexpr (std::is_integral_v<T>) {
      w = std::floor(w);
    }
    return li > lj ? w : -w;
  };
}

/// The unmasked round's flow over the per-epoch cached denominators.
template <class T>
auto cached_flow(const std::vector<double>& denoms) {
  return [&denoms](std::size_t k, const graph::Edge&, double li, double lj) {
    if (li == lj) return 0.0;
    double w = std::fabs(li - lj) / denoms[k];
    if constexpr (std::is_integral_v<T>) {
      w = std::floor(w);
    }
    return li > lj ? w : -w;
  };
}

}  // namespace

template <class T>
DiffusionBalancer<T>::DiffusionBalancer(DiffusionConfig cfg) : cfg_(cfg) {
  LB_ASSERT_MSG(cfg_.factor > 0.0, "diffusion factor must be positive");
}

template <class T>
std::string DiffusionBalancer<T>::name() const {
  std::string base = std::is_integral_v<T> ? "diffusion-disc" : "diffusion-cont";
  if (cfg_.rule == DenominatorRule::kDegreePlusOne) {
    base = std::is_integral_v<T> ? "fos-disc" : "fos-flow";
  } else if (cfg_.factor != 4.0) {
    // Shortest-form formatting: "f=2" for 2.0 but "f=2.5" for 2.5, so
    // distinct configs never collide in bench CSV rows.
    std::ostringstream os;
    os << "(f=" << cfg_.factor << ")";
    base += os.str();
  }
  return base;
}

template <class T>
StepStats DiffusionBalancer<T>::step_masked(RoundContext<T>& ctx,
                                            const graph::TopologyFrame& frame,
                                            std::vector<T>& load) {
  LB_ASSERT_MSG(load.size() == frame.num_nodes(), "load vector does not match graph");
  util::ThreadPool* pool = cfg_.parallel ? ctx.pool() : nullptr;
  StepStats stats;
  stats.links = frame.num_edges();

  // Alive-degrees move with every mask revision, so the per-epoch
  // denominator cache buys nothing here.
  run_edge_flow_round(ctx, load, pool, stats, masked_flow<T>(frame, cfg_));
  return stats;
}

template <class T>
StepStats DiffusionBalancer<T>::step(RoundContext<T>& ctx, std::vector<T>& load) {
  if (ctx.masked() && cfg_.apply == ApplyPath::kLedger) {
    // Masked dynamic round: run off the frame, never materializing.
    // The kEdgeSweep configuration stays on the materialized path below —
    // it is the seed-verbatim oracle and must keep its exact cost/shape.
    return step_masked(ctx, ctx.frame(), load);
  }
  const graph::Graph& g = ctx.graph();
  LB_ASSERT_MSG(load.size() == g.num_nodes(), "load vector does not match graph");
  util::ThreadPool* pool = cfg_.parallel ? ctx.pool() : nullptr;
  std::vector<double>& flows = ctx.arena().flows();
  StepStats stats;
  stats.links = g.num_edges();

  if (cfg_.apply == ApplyPath::kEdgeSweep) {
    // The seed path, verbatim: recompute the denominator per edge, apply
    // sequentially with fused stats.  Kept as the ablation baseline and
    // the bit-identity oracle.
    compute_edge_flows(g, load, flows, pool,
                       [this, &g](std::size_t, const graph::Edge& e, double li,
                                  double lj) {
                         if (li == lj) return 0.0;
                         double w = diffusion_edge_weight(g, e.u, e.v, li, lj, cfg_);
                         if constexpr (std::is_integral_v<T>) {
                           w = std::floor(w);
                         }
                         return li > lj ? w : -w;
                       });
    apply_edge_sweep_with_stats(g, flows, load, stats);
    return stats;
  }

  // kLedger path.  The per-edge denominators are a per-epoch
  // precomputation keyed on the graph revision, so every round is free
  // of degree lookups.  The cached denominator is the same
  // double the seed computes inline, so the flows — and therefore the
  // loads — remain bit-identical to the edge-sweep path.
  ensure_denominators(g, pool);

  // The partitioned fused round (round_context.hpp): same flows from the
  // same snapshot, same per-node update order as the edge sweep at every
  // pool size, with the summary and StepStats as fixed-chunk folds.
  run_edge_flow_round(ctx, load, pool, stats, cached_flow<T>(denoms_));
  return stats;
}

template <class T>
void DiffusionBalancer<T>::ensure_denominators(const graph::Graph& g,
                                               util::ThreadPool* pool) {
  if (denom_revision_ == g.revision()) return;
  denom_revision_ = g.revision();
  const auto& edges = g.edges();
  denoms_.resize(edges.size());
  auto fill = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t k = lo; k < hi; ++k) {
      const graph::Edge& e = edges[k];
      switch (cfg_.rule) {
        case DenominatorRule::kFactorTimesMaxDegree:
          denoms_[k] = cfg_.factor *
                       static_cast<double>(std::max(g.degree(e.u), g.degree(e.v)));
          break;
        case DenominatorRule::kDegreePlusOne:
          denoms_[k] = static_cast<double>(g.max_degree()) + 1.0;
          break;
      }
    }
  };
  if (pool != nullptr) {
    pool->parallel_for(0, edges.size(), 2048, fill);
  } else {
    fill(0, edges.size());
  }
}

template <class T>
bool DiffusionBalancer<T>::plan_round(RoundContext<T>& ctx, FlowProgram<T>& program) {
  // The kEdgeSweep configuration is the seed-verbatim ablation oracle;
  // it keeps its bespoke step() shape and is never distributed.
  if (cfg_.apply != ApplyPath::kLedger) return false;
  program.links = ctx.frame().num_edges();
  if (ctx.masked()) {
    plan_edge_flow_round(program, masked_flow<T>(ctx.frame(), cfg_));
    return true;
  }
  ensure_denominators(ctx.graph(), cfg_.parallel ? ctx.pool() : nullptr);
  plan_edge_flow_round(program, cached_flow<T>(denoms_));
  return true;
}

template class DiffusionBalancer<double>;
template class DiffusionBalancer<std::int64_t>;

std::unique_ptr<ContinuousBalancer> make_diffusion_continuous() {
  return std::make_unique<ContinuousDiffusion>();
}

std::unique_ptr<DiscreteBalancer> make_diffusion_discrete() {
  return std::make_unique<DiscreteDiffusion>();
}

}  // namespace lb::core
