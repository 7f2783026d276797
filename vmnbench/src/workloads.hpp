// The four benchmark workloads and what one run of them records.
//
// Every workload generates its inputs from the run's seed with the library's
// own scenario generators, hands libvmn nothing but the generated spec text,
// times only public calls (io::parse_spec_string, verify::Engine and
// verify::ServeState::handle_line("RELOAD")), and checks every verdict the
// timed calls return. See vmnbench/README.md for why each workload exists.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "trace.hpp"

namespace vmnbench {

struct Config {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Small inputs for the self-test (vmnbench/selftest.py).
  bool tiny = false;
  /// Flips the first expected verdict, so a correct program fails the run.
  bool flip_expectation = false;
  /// Run exactly this many operations instead of stopping on time (0 = off).
  std::size_t ops = 0;
  /// Scratch directory for the files a workload writes (the served spec).
  std::string work_dir = ".";
};

/// Counters summed over the BatchResult of every timed operation.
struct EngineTotals {
  std::size_t batches = 0;
  std::size_t planned_jobs = 0;
  std::size_t solver_calls = 0;
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
  std::size_t cold_binds = 0;
  std::size_t warm_reuses = 0;
  std::size_t iso_verdict_reuses = 0;
  /// Sum of the workers' busy time (whole-ms per task in the library).
  double worker_busy_us = 0.0;
  /// Workers x run_batch wall, summed.
  double worker_capacity_us = 0.0;
};

/// Counters of the layer-by-layer replays (traced runs only).
struct ReplayTotals {
  std::size_t ops = 0;
  std::size_t invariants = 0;
  std::size_t solver_jobs = 0;
  std::size_t axioms = 0;
  std::size_t checks = 0;
  std::size_t unknown = 0;
  std::size_t witnesses = 0;
  std::size_t transfer_builds = 0;
};

struct Report {
  bool correct = true;
  std::string first_error;
  /// Timed operations attempted / of those, ones with an unknown or wrong
  /// verdict or a refused reload.
  std::size_t ops = 0;
  std::size_t failed_ops = 0;
  /// Verdicts the timed operations returned / of those, unknown.
  std::size_t verdicts = 0;
  std::size_t unknown = 0;
  std::vector<double> setup_us;
  /// Wall time of untraced / traced timed operations.
  std::vector<double> op_us;
  std::vector<double> traced_op_us;
  /// Verdicts per second of each untraced timed operation.
  std::vector<double> op_rate;
  EngineTotals engine;
  ReplayTotals replay;

  void fail(const std::string& why) {
    if (correct) first_error = why;
    correct = false;
  }
};

/// Runs `config.workload` (zoo, estate, reload or isolation); spans land in
/// `tracer`. Throws std::invalid_argument for an unknown workload.
[[nodiscard]] Report run_workload(const Config& config, Tracer& tracer);

}  // namespace vmnbench
