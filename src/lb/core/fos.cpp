#include "lb/core/fos.hpp"

#include <cmath>

#include "lb/core/diffusion.hpp"
#include "lb/core/flow_program.hpp"
#include "lb/core/round_context.hpp"
#include "lb/util/assert.hpp"
#include "lb/util/thread_pool.hpp"

namespace lb::core {

StepStats FirstOrderScheme::step(RoundContext<double>& ctx,
                                 std::vector<double>& load) {
  // α from the frame's max-degree: the mask's alive max-degree on masked
  // rounds, the graph's own otherwise — the exact α of the materialized
  // view either way.
  const graph::TopologyFrame& frame = ctx.frame();
  LB_ASSERT_MSG(load.size() == frame.num_nodes(), "load vector does not match graph");
  const double alpha = 1.0 / (static_cast<double>(frame.max_degree()) + 1.0);
  util::ThreadPool* pool = parallel_ ? ctx.pool() : nullptr;

  // Flow form of L^{t+1} = M·L^t: every edge carries α·(ℓ_u − ℓ_v), all
  // computed from the round-start snapshot.
  const auto flow_fn = [alpha](std::size_t, const graph::Edge&, double lu,
                               double lv) { return alpha * (lu - lv); };

  StepStats stats;
  stats.links = frame.num_edges();
  if (apply_ == ApplyPath::kLedger) {
    run_edge_flow_round(ctx, load, pool, stats, flow_fn);
  } else {
    // The seed's edge sweep on the (materialized) round graph: the oracle.
    const graph::Graph& g = ctx.graph();
    std::vector<double>& flows = ctx.arena().flows();
    compute_edge_flows(g, load, flows, pool, flow_fn);
    apply_edge_sweep_with_stats(g, flows, load, stats);
  }
  return stats;
}

bool FirstOrderScheme::plan_round(RoundContext<double>& ctx,
                                  FlowProgram<double>& program) {
  if (apply_ != ApplyPath::kLedger) return false;
  // Unmasked frames: frame.max_degree() == graph().max_degree(), so this
  // is the exact α both step() branches derive.
  const graph::TopologyFrame& frame = ctx.frame();
  const double alpha = 1.0 / (static_cast<double>(frame.max_degree()) + 1.0);
  program.links = frame.num_edges();
  plan_edge_flow_round(program, [alpha](std::size_t, const graph::Edge&, double lu,
                                        double lv) { return alpha * (lu - lv); });
  return true;
}

std::unique_ptr<ContinuousBalancer> make_fos_continuous() {
  return std::make_unique<FirstOrderScheme>();
}

std::unique_ptr<DiscreteBalancer> make_fos_discrete() {
  DiffusionConfig cfg;
  cfg.rule = DenominatorRule::kDegreePlusOne;
  return std::make_unique<DiscreteDiffusion>(cfg);
}

}  // namespace lb::core
