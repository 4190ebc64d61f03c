// lbperf: the repository benchmark.  One workload per invocation:
//
//   lbperf --workload <torus-2m-closed|shard-open-tokens|campaign-dynamic>
//          --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//          [--source-id <id>] [--corrupt]
//   lbperf --list-metrics | --self-test
//
// Prints a provenance line, then as its last line one JSON object:
// {"correct", "attempted", "failed", "metrics"} with every end-to-end
// metric (--trace 0) or every per-layer metric (--trace 1).  Exits 1 when
// any verified unit failed, 2 on a usage or internal error.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <regex>
#include <string>
#include <thread>

#include "workloads.hpp"

namespace {

using namespace lbperf;

void usage() {
  std::fprintf(stderr,
               "usage: lbperf --workload <torus-2m-closed|shard-open-tokens|campaign-dynamic> "
               "--seed <n> --seconds <s> --trace <0|1> [--trace-out <file>] "
               "[--source-id <id>] [--corrupt]\n"
               "       lbperf --list-metrics | --self-test\n");
}

void list_metrics() {
  for (const MetricDef& d : metric_defs()) {
    std::printf("%s %s %s %s\n", d.kind == Kind::kEndToEnd ? "end_to_end" : "per_layer",
                d.name, d.unit, d.better);
  }
}

/// Checks of the benchmark's own machinery (selftest.py runs this).
int self_test() {
  int bad = 0;
  const auto expect = [&](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "self-test failed: %s\n", what);
      ++bad;
    }
  };
  const std::regex name_re("[A-Za-z0-9][A-Za-z0-9_.-]{0,63}");
  const std::regex unit_re("[A-Za-z0-9_/%.-]{1,16}");
  for (const MetricDef& d : metric_defs()) {
    expect(std::regex_match(d.name, name_re), d.name);
    expect(std::regex_match(d.unit, unit_re), d.unit);
  }
  std::vector<double> v(99);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = static_cast<double>(i);
  expect(!tail_percentile(v, 0.9).has_value(), "p90 of 99 samples must be withheld");
  v.push_back(99.0);
  expect(tail_percentile(v, 0.9).has_value(), "p90 of 100 samples must be reported");
  expect(!tail_percentile(v, 0.99).has_value(), "p99 of 100 samples must be withheld");
  expect(median({3.0, 1.0, 2.0}) == 2.0, "median");
  Gate gate;
  gate.check(true, "ok");
  gate.check(false, "deliberate self-test mismatch");
  expect(gate.attempted() == 2 && gate.failed() == 1, "gate counts");
  Report rep;
  bool threw = false;
  try {
    rep.set("no.such.metric", 1.0);
  } catch (const std::logic_error&) {
    threw = true;
  }
  expect(threw, "unknown metric names are rejected");
  std::printf("self-test %s\n", bad == 0 ? "ok" : "FAILED");
  return bad == 0 ? 0 : 1;
}

bool parse(int argc, char** argv, Options& opt, std::string& source_id) {
  bool have_workload = false;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--corrupt") {
      opt.corrupt = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      opt.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v.c_str(), &end, 10);
      have_seed = *end == '\0';
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v.c_str(), &end);
      have_seconds = *end == '\0' && opt.seconds > 0.0;
    } else if (a == "--trace") {
      opt.trace = v == "1";
      have_trace = v == "0" || v == "1";
    } else if (a == "--trace-out") {
      opt.trace_out = v;
    } else if (a == "--source-id") {
      source_id = v;
    } else {
      return false;
    }
  }
  return have_workload && have_seed && have_seconds && have_trace;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::string(argv[1]) == "--list-metrics") {
    list_metrics();
    return 0;
  }
  if (argc == 2 && std::string(argv[1]) == "--self-test") return self_test();
  Options opt;
  std::string source_id = "unknown";
  if (!parse(argc, argv, opt, source_id)) {
    usage();
    return 2;
  }
  try {
    Pools pools;
    Outcome out;
    if (opt.workload == "torus-2m-closed") {
      run_torus_2m_closed(opt, pools, out);
    } else if (opt.workload == "shard-open-tokens") {
      run_shard_open_tokens(opt, pools, out);
    } else if (opt.workload == "campaign-dynamic") {
      run_campaign_dynamic(opt, pools, out);
    } else {
      usage();
      return 2;
    }
    // Calibration last, once the workload's memory is released.
    const Triad triad = triad_probe(pools);
    if (opt.trace) {
      out.report.set("util.triad_gbps.w1", triad.gbps_w1);
      out.report.set("util.triad_gbps.w4", triad.gbps_w4);
    }
    std::printf(
        "# provenance {\"source\": \"%s\", \"compiler\": \"%s\", \"build_type\": \"%s\", "
        "\"nproc\": %u, \"llc_bytes\": %zu, \"triad_array_bytes\": %zu, "
        "\"triad_gbps_w1\": %.4f, \"triad_gbps_w4\": %.4f, \"workload\": \"%s\", "
        "\"seed\": %llu, \"seconds\": %g, \"trace\": %d}\n",
        source_id.c_str(), LBPERF_COMPILER, LBPERF_BUILD_TYPE,
        std::thread::hardware_concurrency(), triad.llc_bytes, triad.array_bytes,
        triad.gbps_w1, triad.gbps_w4, opt.workload.c_str(),
        static_cast<unsigned long long>(opt.seed), opt.seconds, opt.trace ? 1 : 0);

    const Kind kind = opt.trace ? Kind::kPerLayer : Kind::kEndToEnd;
    const std::vector<std::string> missing = out.report.missing(kind);
    if (!missing.empty()) {
      std::fprintf(stderr, "internal error: metric %s was not measured\n", missing[0].c_str());
      return 2;
    }
    if (opt.trace && !opt.trace_out.empty() && !out.spans.write_jsonl(opt.trace_out)) {
      std::fprintf(stderr, "cannot write spans to %s\n", opt.trace_out.c_str());
      return 2;
    }
    const bool correct = out.gate.failed() == 0 && out.gate.attempted() > 0;
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(out.gate.attempted()),
                static_cast<unsigned long long>(out.gate.failed()),
                out.report.json(kind).c_str());
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lbperf: %s\n", e.what());
    return 2;
  }
}
