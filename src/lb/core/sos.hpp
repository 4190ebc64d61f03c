// Second-order scheme (SOS) of Muthukrishnan, Ghosh & Schultz [15]:
//
//   L^1     = M·L^0
//   L^{t+1} = β·M·L^t + (1 − β)·L^{t-1},   1 <= β < 2.
//
// With the optimal β = 2 / (1 + sqrt(1 − γ²)) (γ the second-largest
// |eigenvalue| of M) the scheme converges like the Chebyshev-accelerated
// iteration — asymptotically much faster than FOS on slowly-mixing
// topologies.  Continuous only: the affine combination conserves total
// load but produces fractional (and possibly transiently negative)
// intermediate loads, exactly as in [15].
//
// A round is the FOS edge flows plus a per-node post-combine carrying the
// β-recurrence, on the partitioned fused round (core/round_context.hpp):
// flows, apply and combine are one parallel pass, deterministic across
// thread counts.
#pragma once

#include <memory>
#include <optional>

#include "lb/core/algorithm.hpp"
#include "lb/core/flow_ledger.hpp"

namespace lb::core {

class SecondOrderScheme final : public Balancer<double> {
 public:
  /// If `beta` is nullopt it is computed on first use from the graph's
  /// spectrum via diffusion_gamma (dense path; intended for n <= 4096).
  explicit SecondOrderScheme(std::optional<double> beta = std::nullopt,
                             bool parallel = true,
                             ApplyPath apply = ApplyPath::kLedger);

  std::string name() const override { return "sos"; }
  using Balancer<double>::step;
  StepStats step(RoundContext<double>& ctx, std::vector<double>& load) override;

  /// Sharded replay (flow_program.hpp): the FOS edge flow plus a per-node
  /// post combine carrying the β-recurrence — plain FOS on the first
  /// round (recording L^{t-1}), β·(M·L)_u + (1−β)·prev otherwise, with
  /// the exact per-node expression step() evaluates.  prev_ is per-node
  /// state, so the post closure is safe to run from any domain.
  bool plan_round(RoundContext<double>& ctx,
                  FlowProgram<double>& program) override;

  /// Run isolation: forget L^{t-1} (the next step is a plain FOS round
  /// again, as for a fresh instance) and, when β was auto-computed,
  /// forget it too so a run on a different graph re-derives its own
  /// optimal β exactly as a fresh balancer would.
  void on_run_begin() override {
    have_prev_ = false;
    beta_ = configured_beta_;
  }

  double beta() const { return beta_.value_or(0.0); }

  /// Optimal β for a given γ ∈ [0, 1).
  static double optimal_beta(double gamma);

 private:
  /// The per-node β-recurrence as a post(u, applied, before) combine:
  /// `applied` is (M·L^t)_u and `before` is L^t_u.  Plain FOS on the
  /// first round, β·applied + (1−β)·L^{t-1}_u after; either way L^{t-1}_u
  /// <- before.  Touches only prev_[u], so any partition or domain may
  /// run it.
  struct BetaCombine {
    std::vector<double>* prev;
    double beta;
    bool first;
    double operator()(std::size_t u, double applied, double before) const {
      const double next =
          first ? applied : beta * applied + (1.0 - beta) * (*prev)[u];
      (*prev)[u] = before;
      return next;
    }
  };
  /// The combine for the round about to run; advances the first-round
  /// flag (sizing prev_) exactly once per round.
  BetaCombine begin_combine(std::size_t n);

  std::optional<double> configured_beta_;  // constructor argument, verbatim
  std::optional<double> beta_;             // in effect (auto-filled on first step)
  bool parallel_;
  ApplyPath apply_;
  std::vector<double> prev_;  // L^{t-1} — algorithm state, not scratch
  bool have_prev_ = false;
};

std::unique_ptr<ContinuousBalancer> make_sos(std::optional<double> beta = std::nullopt);

}  // namespace lb::core
