#include "substrate.hpp"

#include <cmath>
#include <limits>
#include <numeric>

namespace lbperf {

void Substrate::prepare(int b) {
  if (b == kTokens) {
    token_work = token0;
  } else {
    real_work = real0;
  }
}

lb::core::RunResult Substrate::execute(int b, lb::core::EngineConfig cfg) {
  seq->reset();
  switch (b) {
    case 0:
      cfg.stream = real_stream.get();
      return lb::core::run(cont, *seq, real_work, cfg, real_arena);
    case 1:
      cfg.stream = real_stream.get();
      return lb::core::run(sos, *seq, real_work, cfg, real_arena);
    default:
      cfg.stream = token_stream.get();
      return lb::core::run(disc, *seq, token_work, cfg, token_arena);
  }
}

LegResult Substrate::execute_traced(int b, const lb::core::EngineConfig& cfg, SpanLog& log,
                                    std::uint32_t unit) {
  seq->reset();
  switch (b) {
    case 0:
      return traced_run(cont, *seq, real_work, cfg, real_arena, real_stream.get(), log, unit);
    case 1:
      return traced_run(sos, *seq, real_work, cfg, real_arena, real_stream.get(), log, unit);
    default:
      return traced_run(disc, *seq, token_work, cfg, token_arena, token_stream.get(), log,
                        unit);
  }
}

void Substrate::warm_up(std::uint64_t seed, Pools& pools) {
  real_arena.reserve_for(g.num_nodes(), g.num_edges());
  token_arena.reserve_for(g.num_nodes(), g.num_edges());
  for (int b = 0; b < kBalancers; ++b) {
    for (int w = 0; w < 2; ++w) {
      prepare(b);
      (void)execute(b, fixed_rounds_config(1, seed, pools.at(w)));
    }
  }
}

void Reference::take(const Substrate& s, int b, std::size_t rounds, const LegResult& r,
                     Gate& gate) {
  const double traffic = r.arrivals - r.departures;
  const bool closed = s.real_stream == nullptr;
  bool ok = r.rounds == rounds;
  if (b == kTokens) {
    const double before = static_cast<double>(
        std::accumulate(s.token0.begin(), s.token0.end(), std::int64_t{0}));
    const double after = static_cast<double>(
        std::accumulate(s.token_work.begin(), s.token_work.end(), std::int64_t{0}));
    ok = ok && after == before + traffic;
    ok = ok && (!closed || r.final_potential < lb::core::summarize(s.token0).potential);
    tokens = s.token_work;
  } else {
    const double before = std::accumulate(s.real0.begin(), s.real0.end(), 0.0);
    const double after = std::accumulate(s.real_work.begin(), s.real_work.end(), 0.0);
    // SOS mixes in the previous round's vector, which predates that
    // round's traffic, so it conserves exactly only on a closed system.
    const bool conserving = closed || b != 1;
    ok = ok && (!conserving || std::abs(after - (before + traffic)) <= 1e-9 * before);
    ok = ok && (!closed || r.final_potential < lb::core::summarize(s.real0).potential);
    real = s.real_work;
  }
  gate.check(ok, std::string("reference run of ") + kBalancerNames[b]);
  result = r;
  set = true;
}

bool Reference::matches(const Substrate& s, int b, const LegResult& r) const {
  const bool loads =
      b == kTokens ? bytes_equal(s.token_work, tokens) : bytes_equal(s.real_work, real);
  return loads && same_result(r, result);
}

void corrupt_output(Substrate& s, int b) {
  if (b == kTokens) {
    s.token_work[0] += 1;
  } else {
    s.real_work[0] =
        std::nextafter(s.real_work[0], std::numeric_limits<double>::infinity());
  }
}

void rotate_core_legs(Substrate& s, std::size_t rounds, std::uint64_t engine_seed,
                      const Options& opt, Pools& pools, Outcome& out, CoreLegs& legs) {
  Reference refs[kBalancers];
  std::uint32_t next_unit = 0;
  std::size_t timed = 0;
  const auto deadline = Clock::now() + std::chrono::duration<double>(opt.seconds);
  // Rotation 0 is verified but not timed: the first full-length unit of a
  // leg still pays lazy first-use costs the one-round warm-up does not.
  for (int rot = 0; rot < 3 || Clock::now() < deadline; ++rot) {
    for (int b = 0; b < kBalancers; ++b) {
      for (int k = 0; k < 2; ++k) {
        const int w = (rot + k) % 2;  // alternate which pool goes first
        const lb::core::EngineConfig cfg = fixed_rounds_config(rounds, engine_seed, pools.at(w));
        s.prepare(b);
        const auto t0 = Clock::now();
        const LegResult r = leg_result(s.execute(b, cfg));
        if (rot > 0) {
          legs.round_ms[b][w].push_back(seconds_since(t0) * 1e3 / static_cast<double>(rounds));
        }
        if (opt.corrupt && ++timed == 2) corrupt_output(s, b);
        const std::string leg = std::string(kBalancerNames[b]) + " at " + Pools::label(w);
        if (!refs[b].set) {
          refs[b].take(s, b, rounds, r, out.gate);
        } else {
          out.gate.check(refs[b].matches(s, b, r), leg + " differs from the reference");
        }
        if (!opt.trace) continue;
        s.prepare(b);
        const std::uint32_t unit = next_unit++;
        const LegResult tr = s.execute_traced(b, cfg, out.spans, unit);
        if (rot > 0) legs.units[b][w].push_back(unit);
        out.gate.check(refs[b].matches(s, b, tr), "traced loop differs from core::run: " + leg);
      }
    }
  }
}

void core_layer_metrics(const Substrate& s, const CoreLegs& legs, const SpanLog& spans,
                        Report& rep) {
  std::vector<std::uint32_t> all_units;
  double step_sum[2] = {0.0, 0.0};
  double bytes_sum[2] = {0.0, 0.0};
  double traced_ms = 0.0;
  double untraced_ms = 0.0;
  for (int b = 0; b < kBalancers; ++b) {
    for (int w = 0; w < 2; ++w) {
      const double step = median(span_ms(spans, kSpanStep, legs.units[b][w]));
      rep.set(std::string("core.step_ms.") + kBalancerNames[b] + "." + Pools::label(w), step);
      step_sum[w] += step;
      bytes_sum[w] += round_bytes_computed(
          s.g.num_nodes(), s.g.num_edges(), b == kTokens ? sizeof(std::int64_t) : sizeof(double),
          w == 1, b == 1 ? 2 * sizeof(double) : 0);
      traced_ms += median(run_round_ms(spans, legs.units[b][w]));
      untraced_ms += median(legs.round_ms[b][w]);
      all_units.insert(all_units.end(), legs.units[b][w].begin(), legs.units[b][w].end());
    }
  }
  rep.set("core.speedup.w4", step_sum[0] / step_sum[1]);
  rep.set("core.gbps_computed.w1", bytes_sum[0] / (step_sum[0] * 1e-3) * 1e-9);
  rep.set("core.gbps_computed.w4", bytes_sum[1] / (step_sum[1] * 1e-3) * 1e-9);
  rep.set("trace.overhead_frac", traced_ms / untraced_ms - 1.0);
  rep.set("graph.frame_us", median(span_ms(spans, kSpanFrame, all_units)) * 1e3);
}

}  // namespace lbperf
