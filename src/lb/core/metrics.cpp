#include "lb/core/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "lb/util/stats.hpp"
#include "lb/util/thread_pool.hpp"

namespace lb::core {

ConvergenceReport analyze(const Trace& trace, double initial_potential, double epsilon,
                          double floor_potential) {
  ConvergenceReport rep;
  rep.initial_potential = initial_potential;
  rep.rounds = trace.size();
  if (trace.empty()) {
    rep.final_potential = initial_potential;
    return rep;
  }
  rep.final_potential = trace[trace.size() - 1].potential;
  rep.rounds_to_epsilon = trace.first_round_at_or_below(epsilon * initial_potential);

  // Geometric mean of the per-round ratios over the decaying prefix.
  double log_sum = 0.0;
  std::size_t terms = 0;
  double prev = initial_potential;
  std::vector<double> xs, ys;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const double cur = trace[i].potential;
    if (prev > floor_potential && cur > floor_potential) {
      log_sum += std::log(cur / prev);
      ++terms;
      xs.push_back(static_cast<double>(trace[i].round));
      ys.push_back(std::log(cur));
    }
    prev = cur;
  }
  if (terms > 0) rep.mean_drop_ratio = std::exp(log_sum / static_cast<double>(terms));
  if (xs.size() >= 2) {
    const util::LinearFit fit = util::linear_fit(xs, ys);
    rep.log_slope = fit.slope;
    rep.fit_r_squared = fit.r_squared;
  }
  return rep;
}

double safe_ratio(double measured, double bound) {
  if (bound == 0.0) return measured == 0.0 ? 1.0 : std::numeric_limits<double>::infinity();
  return measured / bound;
}

template <class T>
LoadSummary<T> combine_summary_partials(const std::vector<SummaryPartial<T>>& parts,
                                        std::size_t n, double average,
                                        SummaryMode mode) {
  // Chunk-index order: the one combination order, independent of which
  // worker produced which partial.  The extrema are seeded from the first
  // partial.
  LoadSummary<T> s;
  s.average = average;
  if (n == 0 || parts.empty()) return s;
  T total{};
  double potential = 0.0;
  T lo = parts.front().min;
  T hi = parts.front().max;
  for (const SummaryPartial<T>& p : parts) {
    total += p.total;
    potential += p.sq_dev;
    lo = std::min(lo, p.min);
    hi = std::max(hi, p.max);
  }
  s.total = total;
  if (mode != SummaryMode::kExtremaOnly) s.potential = potential;
  if (mode != SummaryMode::kPotentialOnly) {
    s.min = lo;
    s.max = hi;
    s.discrepancy = static_cast<double>(hi) - static_cast<double>(lo);
  }
  return s;
}

template <class T>
LoadSummary<T> summarize_deterministic(const std::vector<T>& load, double average,
                                       util::ThreadPool* pool, SummaryMode mode) {
  return fused_sweep_with_summary<T>(pool, load.size(), average, mode,
                                     [&load](std::size_t i) { return load[i]; });
}

template <class T>
LoadSummary<T> summarize_deterministic(const std::vector<T>& load, double average,
                                       util::ThreadPool* pool, SummaryMode mode,
                                       std::vector<SummaryPartial<T>>& parts) {
  return fused_sweep_with_summary<T>(pool, load.size(), average, mode, parts,
                                     [&load](std::size_t i) { return load[i]; });
}

template <class T>
LoadSummary<T> summarize_parallel(const std::vector<T>& load, util::ThreadPool* pool) {
  const std::size_t n = load.size();
  if (n == 0) return LoadSummary<T>{};
  // Pass 1: totals and extrema; the average falls out of the totals.
  LoadSummary<T> s =
      summarize_deterministic(load, 0.0, pool, SummaryMode::kExtremaOnly);
  s.average = static_cast<double>(s.total) / static_cast<double>(n);
  // Pass 2: Φ against that average.
  s.potential =
      summarize_deterministic(load, s.average, pool, SummaryMode::kPotentialOnly)
          .potential;
  return s;
}

#define LB_INSTANTIATE(T)                                                      \
  template LoadSummary<T> combine_summary_partials<T>(                         \
      const std::vector<SummaryPartial<T>>&, std::size_t, double, SummaryMode);\
  template LoadSummary<T> summarize_deterministic<T>(                          \
      const std::vector<T>&, double, util::ThreadPool*, SummaryMode);          \
  template LoadSummary<T> summarize_deterministic<T>(                          \
      const std::vector<T>&, double, util::ThreadPool*, SummaryMode,           \
      std::vector<SummaryPartial<T>>&);                                        \
  template LoadSummary<T> summarize_parallel<T>(const std::vector<T>&,         \
                                                util::ThreadPool*);

LB_INSTANTIATE(double)
LB_INSTANTIATE(std::int64_t)
#undef LB_INSTANTIATE

}  // namespace lb::core
