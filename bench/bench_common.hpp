// Shared helpers for the figure-reproduction benchmarks.
//
// Every benchmark *asserts the expected verification outcome* - a bench that
// silently measured wrong answers would be meaningless - and reports the
// slice size and assertion count as counters alongside the timing.
//
// Machine-readable perf trajectory: benchmarks record named numeric values
// into the process-wide BenchJson sink, and a VMN_BENCH_JSON_MAIN(...) main
// writes them as one JSON document (default path overridable with
// `--json <path>`), so BENCH_*.json files track cold/warm timings, cache
// hits and plan time from run to run.
#pragma once

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "encode/invariant.hpp"
#include "verify/counters.hpp"
#include "verify/engine.hpp"

namespace vmn::bench {

/// Process-wide sink of named numeric records, serialized by write() as
///   {"bench": "<name>", "records": [{"name": ..., "values": {...}}, ...]}
/// Names and keys come from the benchmarks themselves (no escaping needed);
/// non-finite values are clamped to 0 to keep the document valid JSON.
class BenchJson {
 public:
  static BenchJson& instance() {
    static BenchJson sink;
    return sink;
  }

  /// Last write wins per name: Google Benchmark re-invokes a benchmark
  /// while calibrating iteration counts, and only the final (longest,
  /// reported) run should land in the file.
  void record(const std::string& name,
              const std::map<std::string, double>& values) {
    for (Record& r : records_) {
      if (r.name == name) {
        r.values = values;
        return;
      }
    }
    records_.push_back(Record{name, values});
  }

  [[nodiscard]] bool write(const std::string& path,
                           const std::string& bench) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "{\n  \"bench\": \"" << bench << "\",\n  \"records\": [\n";
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      out << "    {\"name\": \"" << r.name << "\", \"values\": {";
      std::size_t k = 0;
      for (const auto& [key, value] : r.values) {
        char num[64];
        std::snprintf(num, sizeof num, "%.6g",
                      std::isfinite(value) ? value : 0.0);
        out << (k++ != 0 ? ", " : "") << "\"" << key << "\": " << num;
      }
      out << "}}" << (i + 1 < records_.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    return static_cast<bool>(out);
  }

  [[nodiscard]] std::size_t size() const { return records_.size(); }

 private:
  struct Record {
    std::string name;
    std::map<std::string, double> values;
  };
  std::vector<Record> records_;
};

/// main() body for JSON-emitting benchmarks: strips `--json <path>` (the
/// remaining flags go to Google Benchmark untouched), runs the registered
/// benchmarks, then writes the BenchJson sink to `path` (default:
/// `default_json` in the working directory; `--json ""` suppresses).
inline int bench_json_main(int argc, char** argv, const char* bench_name,
                           const char* default_json) {
  std::string json_path = default_json;
  std::vector<char*> args;
  args.reserve(static_cast<std::size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
      continue;
    }
    args.push_back(argv[i]);
  }
  int filtered = static_cast<int>(args.size());
  benchmark::Initialize(&filtered, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!json_path.empty()) {
    if (!BenchJson::instance().write(json_path, bench_name)) {
      std::fprintf(stderr, "bench: failed to write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("bench: wrote %s (%zu records)\n", json_path.c_str(),
                BenchJson::instance().size());
  }
  return 0;
}

}  // namespace vmn::bench

/// Defines main() for a bench that writes `default_json` (its CMake target
/// must NOT link benchmark::benchmark_main).
#define VMN_BENCH_JSON_MAIN(bench_name, default_json)              \
  int main(int argc, char** argv) {                                \
    return vmn::bench::bench_json_main(argc, argv, (bench_name),   \
                                       (default_json));            \
  }

namespace vmn::bench {

/// Verifies `inv` once inside the timing loop and checks the outcome.
/// Returns the mean per-verification wall time in ms (0 when skipped), so
/// JSON-emitting callers can record it.
inline double verify_expecting(benchmark::State& state,
                               verify::Engine& engine,
                               const encode::Invariant& inv,
                               verify::Outcome expected) {
  std::size_t slice_size = 0;
  std::size_t assertions = 0;
  double total_ms = 0;
  std::size_t runs = 0;
  for (auto _ : state) {
    verify::VerifyResult r = engine.run_one(inv);
    if (r.outcome != expected) {
      state.SkipWithError(("unexpected outcome: " +
                           verify::to_string(r.outcome) + " (expected " +
                           verify::to_string(expected) + ")")
                              .c_str());
      return 0;
    }
    slice_size = r.slice_size;
    assertions = r.assertion_count;
    total_ms += static_cast<double>(r.total_time.count());
    ++runs;
    benchmark::DoNotOptimize(r);
  }
  state.counters["slice_nodes"] =
      benchmark::Counter(static_cast<double>(slice_size));
  state.counters["assertions"] =
      benchmark::Counter(static_cast<double>(assertions));
  return runs != 0 ? total_ms / static_cast<double>(runs) : 0;
}

/// Reports a batch result: the counter-table rows `names` of `r` (see
/// verify/counters.hpp - the names STATS and the CLI summary use) plus the
/// bench-local `extra` values land in BENCH_*.json under `record`, and
/// each one is mirrored as a Google Benchmark counter.
inline void report(benchmark::State& state, const std::string& record,
                   const verify::BatchResult& r,
                   std::initializer_list<std::string_view> names,
                   std::map<std::string, double> extra = {}) {
  for (std::string_view name : names) {
    extra[std::string(name)] =
        static_cast<double>(verify::counter_value(r, name));
  }
  for (const auto& [key, value] : extra) {
    state.counters[key] = benchmark::Counter(value);
  }
  BenchJson::instance().record(record, extra);
}

/// Verifies a whole invariant list (the "verify the entire network" mode of
/// Figs 3 and 5) and checks every outcome.
inline void verify_all_expecting(benchmark::State& state,
                                 verify::Engine& engine,
                                 const std::vector<encode::Invariant>& invs,
                                 const std::vector<verify::Outcome>& expected,
                                 bool use_symmetry) {
  std::size_t solver_calls = 0;
  for (auto _ : state) {
    verify::BatchResult batch = engine.run_batch(invs, use_symmetry);
    for (std::size_t i = 0; i < invs.size(); ++i) {
      if (batch.results[i].outcome != expected[i]) {
        state.SkipWithError("unexpected outcome in batch");
        return;
      }
    }
    solver_calls = batch.solver_calls;
    benchmark::DoNotOptimize(batch);
  }
  state.counters["invariants"] =
      benchmark::Counter(static_cast<double>(invs.size()));
  state.counters["solver_calls"] =
      benchmark::Counter(static_cast<double>(solver_calls));
}

}  // namespace vmn::bench
