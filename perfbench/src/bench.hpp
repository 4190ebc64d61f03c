// Shared plumbing of the lbperf benchmark: clocks, sample statistics, the
// metric registry and report, the in-memory span log of the traced run,
// and the verification gate.  Everything here is benchmark-side: the
// library under test is only ever reached through its public headers.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace lbperf {

// --- time -------------------------------------------------------------

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Nanoseconds since the first call (the span log's time base).
std::int64_t now_ns();

// --- sample statistics ------------------------------------------------

/// Linear-interpolation quantile (the "inclusive" method) of a copy.
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// A tail percentile is reported only when at least ten samples lie
/// beyond it: q = 0.9 needs 100 samples, q = 0.99 needs 1000.
std::optional<double> tail_percentile(const std::vector<double>& v, double q);

// --- metric registry and report ---------------------------------------

enum class Kind { kEndToEnd, kPerLayer };

struct MetricDef {
  const char* name;
  const char* unit;
  const char* better;  // "higher" | "lower"
  Kind kind;
};

/// Every metric the benchmark can print; BENCHMARK.json lists the same
/// set (selftest.py checks the two agree).
const std::vector<MetricDef>& metric_defs();
const MetricDef* find_metric(const std::string& name);

/// Metric values of one run.  set() rejects names outside the registry,
/// so a typo cannot silently add a metric.
class Report {
 public:
  void set(const std::string& name, double value);
  bool has(const std::string& name) const { return values_.count(name) != 0; }
  double get(const std::string& name) const { return values_.at(name); }
  /// Names of `kind` that were never set.
  std::vector<std::string> missing(Kind kind) const;
  /// The metrics object of the result line, restricted to `kind`.
  std::string json(Kind kind) const;

 private:
  std::map<std::string, double> values_;
};

// --- spans ------------------------------------------------------------

/// One timed call into a layer.  `parent` indexes the enclosing span in
/// the same log (-1 for a root); `unit` groups the spans of one timed
/// unit (one traced engine run).
struct Span {
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::int32_t parent;
  std::uint32_t unit;
  double duration_ms() const { return static_cast<double>(end_ns - start_ns) * 1e-6; }
};

class SpanLog {
 public:
  explicit SpanLog(std::size_t reserve = 1 << 16) { spans_.reserve(reserve); }
  /// Open a span; returns its index.
  std::int32_t open(const char* name, std::int32_t parent, std::uint32_t unit) {
    spans_.push_back(Span{name, now_ns(), 0, parent, unit});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  void close(std::int32_t idx) { spans_[static_cast<std::size_t>(idx)].end_ns = now_ns(); }
  const std::vector<Span>& spans() const { return spans_; }
  /// Write every span as one JSON object per line; false on I/O error.
  bool write_jsonl(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// RAII span.
class Scoped {
 public:
  Scoped(SpanLog& log, const char* name, std::int32_t parent, std::uint32_t unit)
      : log_(log), idx_(log.open(name, parent, unit)) {}
  ~Scoped() { log_.close(idx_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  std::int32_t index() const { return idx_; }

 private:
  SpanLog& log_;
  std::int32_t idx_;
};

// --- verification gate ------------------------------------------------

/// Every timed unit's output is checked; each check is one attempted
/// operation and each mismatch one failed operation.
class Gate {
 public:
  void check(bool ok, const std::string& what);
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

template <class T>
bool bytes_equal(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

inline bool bits_equal(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

// --- run options ------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Perturb one timed unit's output before it is verified, to
  /// prove the gate catches a wrong result (selftest.py).
  bool corrupt = false;
  std::string trace_out;  // span file of the traced run ("" = none)
};

/// What a workload hands back to main().
struct Outcome {
  Report report;
  Gate gate;
  SpanLog spans;
};

}  // namespace lbperf
