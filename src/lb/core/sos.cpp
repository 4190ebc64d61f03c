#include "lb/core/sos.hpp"

#include <cmath>

#include "lb/core/flow_program.hpp"
#include "lb/core/round_context.hpp"
#include "lb/linalg/spectral.hpp"
#include "lb/linalg/spectral_cache.hpp"
#include "lb/util/assert.hpp"
#include "lb/util/thread_pool.hpp"

namespace lb::core {

namespace {

/// γ for the auto-β derivation: through the run's spectral cache when
/// the engine carries one (Tier-1 exact — summary() computes through the
/// identical lambda2/lambda_max path on a miss, so the value is
/// bit-identical to the cold call and the trajectory cannot move), cold
/// otherwise.
double round_gamma(RoundContext<double>& ctx) {
  const graph::Graph& g = ctx.graph();
  linalg::SpectralCache* cache = ctx.spectral_cache();
  if (cache != nullptr) return cache->summary(g).gamma;
  return linalg::diffusion_gamma(g);
}

}  // namespace

SecondOrderScheme::SecondOrderScheme(std::optional<double> beta, bool parallel,
                                     ApplyPath apply)
    : configured_beta_(beta), beta_(beta), parallel_(parallel), apply_(apply) {
  if (beta_) {
    LB_ASSERT_MSG(*beta_ >= 1.0 && *beta_ < 2.0, "SOS needs beta in [1, 2)");
  }
}

double SecondOrderScheme::optimal_beta(double gamma) {
  LB_ASSERT_MSG(gamma >= 0.0 && gamma < 1.0, "gamma must lie in [0, 1)");
  return 2.0 / (1.0 + std::sqrt(1.0 - gamma * gamma));
}

SecondOrderScheme::BetaCombine SecondOrderScheme::begin_combine(std::size_t n) {
  const bool first = !have_prev_;
  if (first) {
    prev_.resize(n);
    have_prev_ = true;
  }
  return BetaCombine{&prev_, *beta_, first};
}

StepStats SecondOrderScheme::step(RoundContext<double>& ctx,
                                  std::vector<double>& load) {
  const graph::TopologyFrame& frame = ctx.frame();
  LB_ASSERT_MSG(load.size() == frame.num_nodes(), "load vector does not match graph");
  if (!beta_) {
    // γ needs the full spectral machinery; on a masked round this
    // materializes the (cached) round-1 view once — identical to what
    // the rebuild path computes.  Dynamic runs normally pass β explicitly.
    beta_ = optimal_beta(round_gamma(ctx));
  }
  const double alpha = 1.0 / (static_cast<double>(frame.max_degree()) + 1.0);
  util::ThreadPool* pool = parallel_ ? ctx.pool() : nullptr;
  // M·L as the FOS edge flows α·(ℓ_u − ℓ_v); the β-recurrence is the
  // per-node post-combine of the applied value.
  const auto flow_fn = [alpha](std::size_t, const graph::Edge&, double lu,
                               double lv) { return alpha * (lu - lv); };
  const BetaCombine combine = begin_combine(frame.num_nodes());

  StepStats stats;
  stats.links = frame.num_edges();
  if (apply_ == ApplyPath::kLedger) {
    run_edge_flow_round(ctx, load, pool, stats, flow_fn, combine);
    return stats;
  }
  // The seed path, the oracle: M·L into a scratch copy by the edge sweep
  // on the (materialized) round graph, then the combine.
  const graph::Graph& g = ctx.graph();
  std::vector<double>& flows = ctx.arena().flows();
  compute_edge_flows(g, load, flows, pool, flow_fn);
  std::vector<double>& applied = ctx.arena().node_scratch();
  applied = load;
  apply_edge_sweep_with_stats(g, flows, applied, stats);
  for (std::size_t u = 0; u < load.size(); ++u) {
    load[u] = combine(u, applied[u], load[u]);
  }
  return stats;
}

bool SecondOrderScheme::plan_round(RoundContext<double>& ctx,
                                   FlowProgram<double>& program) {
  if (apply_ != ApplyPath::kLedger) return false;
  const graph::TopologyFrame& frame = ctx.frame();
  if (!beta_) {
    // Same round-1 spectral derivation as step(); on masked rounds this
    // materializes the cached view, identical to the stepped run.
    beta_ = optimal_beta(round_gamma(ctx));
  }
  const double alpha = 1.0 / (static_cast<double>(frame.max_degree()) + 1.0);
  program.links = frame.num_edges();
  plan_edge_flow_round(
      program,
      [alpha](std::size_t, const graph::Edge&, double lu, double lv) {
        return alpha * (lu - lv);
      },
      begin_combine(frame.num_nodes()));
  return true;
}

std::unique_ptr<ContinuousBalancer> make_sos(std::optional<double> beta) {
  return std::make_unique<SecondOrderScheme>(beta);
}

}  // namespace lb::core
