// The balancer rotation every workload's traced run re-drives, and the
// torus workload's timed units: diffusion-cont and sos β = 1.5 on a Real
// load, diffusion-disc on a Tokens load, over one graph sequence, with an
// optional open-system stream of the matching scalar type.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "layers.hpp"
#include "lb/core/diffusion.hpp"
#include "lb/core/sos.hpp"

namespace lbperf {

inline constexpr int kBalancers = 3;
inline constexpr const char* kBalancerNames[kBalancers] = {"diffusion-cont", "sos",
                                                           "diffusion-disc"};
inline constexpr int kTokens = 2;  // index of the Tokens balancer

struct Substrate {
  lb::graph::Graph g;
  std::unique_ptr<lb::graph::GraphSequence> seq;  // over g; reset before every run
  std::vector<double> real0;
  std::vector<std::int64_t> token0;
  std::unique_ptr<MergedStream<double>> real_stream;  // null: closed system
  std::unique_ptr<MergedStream<std::int64_t>> token_stream;
  lb::core::DiffusionBalancer<double> cont;
  lb::core::SecondOrderScheme sos{1.5};
  lb::core::DiffusionBalancer<std::int64_t> disc;
  lb::core::RunArena<double> real_arena;
  lb::core::RunArena<std::int64_t> token_arena;
  std::vector<double> real_work;
  std::vector<std::int64_t> token_work;

  /// Copy balancer b's initial load into its work vector (untimed).
  void prepare(int b);
  /// core::run of balancer b on its work vector, with the stream attached.
  lb::core::RunResult execute(int b, lb::core::EngineConfig cfg);
  /// The traced loop of balancer b on its work vector.
  LegResult execute_traced(int b, const lb::core::EngineConfig& cfg, SpanLog& log,
                           std::uint32_t unit);
  /// Page-fault the working set in: one round of every (balancer, pool).
  void warm_up(std::uint64_t seed, Pools& pools);
};

/// The first output of a balancer, checked against what any correct run
/// satisfies (every round ran, load conserved up to stream traffic, Φ
/// dropped on a closed system) and then kept as the bit-exact reference.
struct Reference {
  bool set = false;
  LegResult result;
  std::vector<double> real;
  std::vector<std::int64_t> tokens;

  void take(const Substrate& s, int b, std::size_t rounds, const LegResult& r, Gate& gate);
  bool matches(const Substrate& s, int b, const LegResult& r) const;
};

/// Move balancer b's first output entry by one token or one ulp (the gate's
/// mutation check).
void corrupt_output(Substrate& s, int b);

/// Timings of the rotation: untraced ms/round and traced unit ids, per
/// balancer and pool.
struct CoreLegs {
  std::vector<double> round_ms[kBalancers][2];
  std::vector<std::uint32_t> units[kBalancers][2];
};

/// Rotate every balancer through both pools until opt.seconds elapse (at
/// least three rotations, the first verified but untimed): an untraced
/// core::run, and with opt.trace the traced loop on the same input; every
/// output is verified against the balancer's reference.
void rotate_core_legs(Substrate& s, std::size_t rounds, std::uint64_t engine_seed,
                      const Options& opt, Pools& pools, Outcome& out, CoreLegs& legs);

/// core.step_ms.*, core.speedup.w4, core.gbps_computed.*,
/// trace.overhead_frac and graph.frame_us from a traced rotation.
void core_layer_metrics(const Substrate& s, const CoreLegs& legs, const SpanLog& spans,
                        Report& rep);

}  // namespace lbperf
