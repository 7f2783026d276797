// vmnbench: times libvmn's public verification calls on one workload and
// prints every metric by name and unit.
//
//   vmnbench --workload <zoo|estate|reload|isolation> --seed N --seconds S
//            --trace <0|1> [--trace-out FILE] [--work-dir DIR]
//            [--ops N] [--tiny] [--flip-expectation]
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones, from spans around the timed calls, the engine's own
// counters and a layer-by-layer replay of every traced operation.
// Exit status: 0 when every verdict is correct, 1 when one is wrong (the
// JSON is still printed), 2 on a usage or internal error (no JSON).
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "trace.hpp"
#include "workloads.hpp"

namespace vmnbench {
namespace {

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::vector<Metric> end_to_end(const Report& r) {
  return {
      {"setup_s", "s", median(r.setup_us) / 1e6},
      {"verdicts_per_s", "1/s", median(r.op_rate)},
      {"op_p50_ms", "ms", median(r.op_us) / 1e3},
      {"peak_rss_mb", "MiB", peak_rss_mb()},
  };
}

std::vector<Metric> per_layer(const Report& r, const Tracer& tracer,
                              bool reload) {
  const std::map<std::string, SpanTotals> spans = tracer.totals("replay");
  const ReplayTotals& rp = r.replay;
  const EngineTotals& e = r.engine;
  const double ops = static_cast<double>(rp.ops);
  auto per_op_ms = [&](const char* name) {
    const auto it = spans.find(name);
    return it == spans.end() ? 0.0 : ratio(it->second.total_us / 1e3, ops);
  };
  auto per_op = [&](std::size_t count) {
    return ratio(static_cast<double>(count), ops);
  };
  auto frac = [](std::size_t num, std::size_t den) {
    return ratio(static_cast<double>(num), static_cast<double>(den));
  };
  double replay_us = 0.0;
  double uncovered_us = 0.0;
  if (const auto it = spans.find("replay"); it != spans.end()) {
    replay_us = it->second.total_us;
    uncovered_us = it->second.self_us;
  }
  return {
      {"io.parse_ms", "ms", per_op_ms("io.parse")},
      {"io.diff_ms", "ms", per_op_ms("io.diff")},
      {"slice.classes_ms", "ms", per_op_ms("slice.classes")},
      {"slice.plan_ms", "ms", per_op_ms("slice.plan")},
      {"slice.solver_jobs", "count", per_op(rp.solver_jobs)},
      {"slice.dedup_rate", "ratio",
       1.0 - frac(rp.solver_jobs, rp.invariants)},
      {"encode.encode_ms", "ms", per_op_ms("encode")},
      {"encode.axioms", "count", per_op(rp.axioms)},
      {"smt.setup_ms", "ms", per_op_ms("smt.setup")},
      {"smt.check_ms", "ms", per_op_ms("smt.check")},
      {"smt.teardown_ms", "ms", per_op_ms("smt.teardown")},
      {"smt.checks", "count", per_op(rp.checks)},
      {"smt.unknown", "count", static_cast<double>(rp.unknown)},
      {"verify.extract_ms", "ms", per_op_ms("verify.extract")},
      {"verify.witnesses", "count", per_op(rp.witnesses)},
      {"cache.lookup_ms", "ms",
       per_op_ms("cache.lookup") + per_op_ms("cache.store")},
      {"pool.utilization", "ratio",
       ratio(e.worker_busy_us, e.worker_capacity_us)},
      {"pool.cold_binds", "count",
       ratio(static_cast<double>(e.cold_binds),
             static_cast<double>(e.batches))},
      {"pool.warm_reuse_rate", "ratio",
       frac(e.warm_reuses, e.cold_binds + e.warm_reuses)},
      {"pool.iso_replay_share", "ratio",
       frac(e.iso_verdict_reuses, e.planned_jobs)},
      {"cache.hit_rate", "ratio",
       frac(e.cache_hits, e.cache_hits + e.cache_misses)},
      {"serve.solver_calls_per_reload", "count",
       reload ? ratio(static_cast<double>(e.solver_calls),
                      static_cast<double>(e.batches))
              : 0.0},
      {"dataplane.transfer_builds", "count", per_op(rp.transfer_builds)},
      {"unknown_share", "ratio", frac(r.unknown, r.verdicts)},
      {"trace.overhead_share", "ratio",
       ratio(median(r.traced_op_us), median(r.op_us)) - 1.0},
      {"trace.replay_coverage", "ratio",
       replay_us > 0.0 ? 1.0 - uncovered_us / replay_us : 0.0},
      {"trace.replayed_ops", "count", ops},
  };
}

void print_json(const Report& r, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              r.correct ? "true" : "false", r.ops, r.failed_ops);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

/// A human-readable digest on stderr: sample counts, the tail where the run
/// has enough samples for it, and the first wrong verdict.
void print_digest(const Config& cfg, const Report& r) {
  std::vector<double> ops = r.op_us;
  std::sort(ops.begin(), ops.end());
  std::cerr << "vmnbench " << cfg.workload << " seed=" << cfg.seed
            << ": ops=" << r.ops << " (untraced " << ops.size() << ", traced "
            << r.traced_op_us.size() << ") setups=" << r.setup_us.size()
            << " verdicts=" << r.verdicts << " unknown=" << r.unknown;
  // p90 only with at least ten samples beyond it.
  if (ops.size() >= 100) {
    const std::size_t p90 = ops.size() * 9 / 10;
    std::cerr << " op_p90_ms=" << ops[p90] / 1e3;
  }
  std::cerr << '\n';
  if (!r.correct) std::cerr << "vmnbench: WRONG: " << r.first_error << '\n';
}

[[noreturn]] void usage(const std::string& why) {
  throw std::invalid_argument(
      why +
      "\nusage: vmnbench --workload <zoo|estate|reload|isolation> --seed N "
      "--seconds S --trace <0|1> [--trace-out FILE] [--work-dir DIR] "
      "[--ops N] [--tiny] [--flip-expectation]");
}

std::uint64_t parse_count(const std::string& flag, const std::string& text) {
  std::size_t used = 0;
  unsigned long long v = 0;
  try {
    v = std::stoull(text, &used);
  } catch (const std::exception&) {
    usage(flag + " wants a whole number, got '" + text + "'");
  }
  if (used != text.size()) {
    usage(flag + " wants a whole number, got '" + text + "'");
  }
  return v;
}

int run_main(int argc, char** argv) {
  Config cfg;
  std::string trace_out;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      cfg.workload = value();
      have_workload = true;
    } else if (arg == "--seed") {
      cfg.seed = parse_count(arg, value());
    } else if (arg == "--seconds") {
      cfg.seconds = static_cast<double>(parse_count(arg, value()));
    } else if (arg == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") usage("--trace wants 0 or 1");
      cfg.trace = v == "1";
    } else if (arg == "--trace-out") {
      trace_out = value();
    } else if (arg == "--work-dir") {
      cfg.work_dir = value();
    } else if (arg == "--ops") {
      cfg.ops = parse_count(arg, value());
    } else if (arg == "--tiny") {
      cfg.tiny = true;
    } else if (arg == "--flip-expectation") {
      cfg.flip_expectation = true;
    } else {
      usage("unknown argument " + arg);
    }
  }
  if (!have_workload) usage("--workload is required");

  Tracer tracer(cfg.trace);
  const Report report = run_workload(cfg, tracer);
  if (report.ops == 0) throw std::runtime_error("no operation ran");
  if (cfg.trace && !trace_out.empty()) {
    std::ofstream out(trace_out, std::ios::trunc);
    tracer.write_json(out);
  }
  print_digest(cfg, report);
  print_json(report, cfg.trace ? per_layer(report, tracer,
                                           cfg.workload == "reload")
                               : end_to_end(report));
  return report.correct ? 0 : 1;
}

}  // namespace
}  // namespace vmnbench

int main(int argc, char** argv) {
  try {
    return vmnbench::run_main(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "vmnbench: " << e.what() << '\n';
    return 2;
  }
}
