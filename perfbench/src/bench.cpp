#include "bench.hpp"

#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace lbperf {

std::int64_t now_ns() {
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch)
      .count();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

std::optional<double> tail_percentile(const std::vector<double>& v, double q) {
  const auto beyond = static_cast<double>(v.size()) * (1.0 - q);
  if (beyond + 1e-9 < 10.0) return std::nullopt;
  return quantile(v, q);
}

const std::vector<MetricDef>& metric_defs() {
  constexpr Kind E = Kind::kEndToEnd;
  constexpr Kind L = Kind::kPerLayer;
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s", "lower", E},
      {"node_rounds_per_s.w1", "1/s", "higher", E},
      {"node_rounds_per_s.w4", "1/s", "higher", E},
      {"cells_per_s.w1", "1/s", "higher", E},
      {"cells_per_s.w4", "1/s", "higher", E},
      {"peak_rss_mb", "MB", "lower", E},

      {"graph.build_ms", "ms", "lower", L},
      {"graph.bytes_per_node", "B", "lower", L},
      {"graph.frame_us", "us", "lower", L},
      {"core.step_ms.diffusion-cont.w1", "ms", "lower", L},
      {"core.step_ms.diffusion-cont.w4", "ms", "lower", L},
      {"core.step_ms.sos.w1", "ms", "lower", L},
      {"core.step_ms.sos.w4", "ms", "lower", L},
      {"core.step_ms.diffusion-disc.w1", "ms", "lower", L},
      {"core.step_ms.diffusion-disc.w4", "ms", "lower", L},
      {"core.summary_ms.w1", "ms", "lower", L},
      {"core.summary_ms.w4", "ms", "lower", L},
      {"core.speedup.w4", "x", "higher", L},
      {"core.gbps_computed.w1", "GB/s", "higher", L},
      {"core.gbps_computed.w4", "GB/s", "higher", L},
      {"core.ledger_bytes_per_node", "B", "lower", L},
      {"workload.delta_us", "us", "lower", L},
      {"workload.apply_us", "us", "lower", L},
      {"workload.entries_per_round", "count", "higher", L},
      {"shard.partition_ms", "ms", "lower", L},
      {"shard.halo_plan_ms", "ms", "lower", L},
      {"shard.overhead.k1", "x", "lower", L},
      {"shard.overhead.k4", "x", "lower", L},
      {"shard.cut_edges", "count", "lower", L},
      {"sim.messages_per_round", "count", "lower", L},
      {"sim.boundary_bytes_per_round", "B", "lower", L},
      {"linalg.lambda2_ms", "ms", "lower", L},
      {"linalg.exact_hits", "count", "higher", L},
      {"linalg.bound_skips", "count", "higher", L},
      {"linalg.warm_lanczos", "count", "higher", L},
      {"exp.cell_ms_p50.w1", "ms", "lower", L},
      {"exp.cell_ms_p90.w1", "ms", "lower", L},
      {"exp.shard_imbalance.w4", "x", "lower", L},
      {"check.overhead_ratio", "x", "lower", L},
      {"util.triad_gbps.w1", "GB/s", "higher", L},
      {"util.triad_gbps.w4", "GB/s", "higher", L},
      {"util.dispatch_us.w4", "us", "lower", L},
      {"trace.overhead_frac", "frac", "lower", L},
  };
  return defs;
}

const MetricDef* find_metric(const std::string& name) {
  for (const MetricDef& d : metric_defs()) {
    if (name == d.name) return &d;
  }
  return nullptr;
}

void Report::set(const std::string& name, double value) {
  if (find_metric(name) == nullptr) throw std::logic_error("unknown metric " + name);
  values_[name] = value;
}

std::vector<std::string> Report::missing(Kind kind) const {
  std::vector<std::string> out;
  for (const MetricDef& d : metric_defs()) {
    if (d.kind == kind && !has(d.name)) out.emplace_back(d.name);
  }
  return out;
}

std::string Report::json(Kind kind) const {
  std::string out = "{";
  bool first = true;
  char buf[96];
  for (const MetricDef& d : metric_defs()) {
    if (d.kind != kind || !has(d.name)) continue;
    std::snprintf(buf, sizeof buf, "%.17g", get(d.name));
    out += first ? "" : ", ";
    out += "\"" + std::string(d.name) + "\": {\"value\": " + buf + ", \"unit\": \"" +
           d.unit + "\"}";
    first = false;
  }
  return out + "}";
}

bool SpanLog::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld, "
                 "\"parent\": %d, \"unit\": %u}\n",
                 i, s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent, s.unit);
  }
  return std::fclose(f) == 0;
}

void Gate::check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::fprintf(stderr, "VERIFY FAILED: %s\n", what.c_str());
  }
}

}  // namespace lbperf
