// The traced engine loop: core::run's round loop re-driven from outside
// the library through its public calls — GraphSequence::frame_at, the
// stream's delta_at / tally_stream_delta / apply_stream_delta,
// Balancer::step on a RoundContext over a caller-owned RunArena, and
// summarize_deterministic when the balancer publishes no fused summary —
// with one span per call.  It follows the shared-memory engine's
// kFusedParallel path without a per-round trace, so its final loads, Φ
// and stream totals must equal core::run's bit for bit on the same input;
// the workloads assert that on every traced unit.
#pragma once

#include <type_traits>
#include <vector>

#include "bench.hpp"
#include "lb/core/engine.hpp"
#include "lb/core/metrics.hpp"
#include "lb/core/round_context.hpp"
#include "lb/graph/dynamic.hpp"
#include "lb/workload/stream.hpp"

namespace lbperf {

/// The parts of a run the gate compares (the loads are compared in place).
struct LegResult {
  std::size_t rounds = 0;
  double final_potential = 0.0;
  double final_discrepancy = 0.0;
  double arrivals = 0.0;
  double departures = 0.0;
};

inline LegResult leg_result(const lb::core::RunResult& r) {
  return {r.rounds, r.final_potential, r.final_discrepancy, r.stream_arrivals,
          r.stream_departures};
}

inline bool same_result(const LegResult& a, const LegResult& b) {
  return a.rounds == b.rounds && bits_equal(a.final_potential, b.final_potential) &&
         bits_equal(a.final_discrepancy, b.final_discrepancy) &&
         bits_equal(a.arrivals, b.arrivals) && bits_equal(a.departures, b.departures);
}

/// Span names of the traced loop (stable: README.md and the trace file
/// consumers key on them).
inline constexpr const char* kSpanRun = "engine.run";
inline constexpr const char* kSpanRound = "engine.round";
inline constexpr const char* kSpanFrame = "graph.frame_at";
inline constexpr const char* kSpanDelta = "workload.delta_at";
inline constexpr const char* kSpanApply = "workload.apply";
inline constexpr const char* kSpanStep = "core.step";
inline constexpr const char* kSpanSummary = "core.summary";

/// Re-drive `config` (which must name a pool, use the fused metrics path
/// and record no trace) over `seq`, mutating `load`; `stream` replaces
/// config.stream.  Spans go to `log` under `unit`.
template <class T>
LegResult traced_run(lb::core::Balancer<T>& balancer, lb::graph::GraphSequence& seq,
                     std::vector<T>& load, const lb::core::EngineConfig& config,
                     lb::core::RunArena<T>& arena,
                     std::type_identity_t<lb::workload::Stream<T>>* stream, SpanLog& log,
                     std::uint32_t unit) {
  using namespace lb;
  const Scoped run_span(log, kSpanRun, -1, unit);
  util::Rng rng(config.seed);
  balancer.on_run_begin();
  arena.invalidate_snapshot();
  if (stream != nullptr) stream->reset();
  util::ThreadPool* pool = config.pool;

  LegResult out;
  const core::LoadSummary<T> initial = core::summarize_parallel(load, pool);
  double run_average = initial.average;
  T running_total = initial.total;
  if (stream == nullptr && initial.potential <= config.target_potential) {
    out.final_potential = initial.potential;
    out.final_discrepancy = initial.discrepancy;
    return out;
  }
  const core::SummaryMode mode =
      stream != nullptr ? core::SummaryMode::kFull : core::SummaryMode::kPotentialOnly;

  std::size_t idle = 0;
  std::uint64_t base_epoch = 0;
  std::uint64_t mask_epoch = 0;
  bool stopped = false;
  for (std::size_t round = 1; round <= config.max_rounds && !stopped; ++round) {
    const Scoped round_span(log, kSpanRound, run_span.index(), unit);
    const std::int32_t parent = round_span.index();
    const graph::TopologyFrame* frame = nullptr;
    {
      const Scoped s(log, kSpanFrame, parent, unit);
      frame = &seq.frame_at(round);
    }
    if (frame->base_revision() != base_epoch || frame->mask_revision() != mask_epoch) {
      balancer.on_topology_changed();
      base_epoch = frame->base_revision();
      mask_epoch = frame->mask_revision();
    }

    bool delta_applied = false;
    if (stream != nullptr) {
      const workload::StreamDelta<T>* delta = nullptr;
      {
        const Scoped s(log, kSpanDelta, parent, unit);
        delta = &stream->delta_at(round);
      }
      if (!delta->empty()) {
        const Scoped s(log, kSpanApply, parent, unit);
        const workload::AppliedStream<T> applied = workload::tally_stream_delta(*delta, load);
        workload::apply_stream_delta(*delta, load);
        arena.invalidate_snapshot();
        delta_applied = true;
        const T net = applied.net();
        if (net != T{}) {
          running_total += net;
          run_average =
              static_cast<double>(running_total) / static_cast<double>(load.size());
        }
        out.arrivals += static_cast<double>(applied.arrivals);
        out.departures += static_cast<double>(applied.departures);
      }
    }

    core::RoundContext<T> ctx(*frame, rng, pool, arena);
    ctx.set_spectral_cache(config.spectral_cache);
    ctx.request_summary(mode, run_average);
    core::StepStats stats;
    {
      const Scoped s(log, kSpanStep, parent, unit);
      stats = balancer.step(ctx, load);
    }
    ++out.rounds;

    core::LoadSummary<T> summary;
    if (ctx.has_summary()) {
      summary = ctx.summary();
    } else {
      const Scoped s(log, kSpanSummary, parent, unit);
      summary = core::summarize_deterministic(load, run_average, pool, mode,
                                              arena.summary_parts());
    }
    if (stream != nullptr) out.final_discrepancy = summary.discrepancy;
    out.final_potential = summary.potential;

    if (summary.potential <= config.target_potential) {
      stopped = true;
    } else if (stats.transferred == 0.0 && !delta_applied) {
      ++idle;
      stopped = config.stall_rounds > 0 && idle >= config.stall_rounds;
    } else {
      idle = 0;
    }
  }
  if (stream == nullptr) {
    out.final_discrepancy =
        core::summarize_deterministic(load, run_average, pool,
                                      core::SummaryMode::kExtremaOnly,
                                      arena.summary_parts())
            .discrepancy;
  }
  return out;
}

/// Durations (ms) of the spans named `name` recorded under any of `units`.
std::vector<double> span_ms(const SpanLog& log, const char* name,
                            const std::vector<std::uint32_t>& units);

/// Per-round time (ms) of each engine.run span under `units`: the run's
/// duration divided by its number of engine.round children.
std::vector<double> run_round_ms(const SpanLog& log, const std::vector<std::uint32_t>& units);

}  // namespace lbperf
