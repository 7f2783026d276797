#include "verify/counters.hpp"

#include <string>

#include "core/error.hpp"
#include "verify/verifier.hpp"

namespace vmn::verify {

namespace {

std::size_t ms(std::chrono::milliseconds t) {
  return static_cast<std::size_t>(t.count());
}

using enum CounterKind;
using B = const BatchResult&;

// One row per line: the table reads as a table, past the 80-column norm.

constexpr CounterRow kRows[] = {
    {"jobs_executed", [](B b) { return b.pool.jobs_executed; }, counter},
    {"symmetry_hits", [](B b) { return b.pool.symmetry_hits; }, counter},
    {"conservative_splits", [](B b) { return b.pool.conservative_splits; }, counter},
    {"solver_calls", [](B b) { return b.solver_calls; }, counter},
    {"cache_hits", [](B b) { return b.cache_hits; }, counter},
    {"cache_misses", [](B b) { return b.cache_misses; }, counter},
    {"cache_records_dropped", [](B b) { return b.degradation.cache_records_dropped; }, counter},
    {"warm_binds", [](B b) { return b.warm_binds; }, counter},
    {"warm_reuses", [](B b) { return b.warm_reuses; }, counter},
    {"iso_mapped", [](B b) { return b.iso_mapped; }, counter},
    {"iso_reuses", [](B b) { return b.iso_reuses; }, counter},
    {"iso_verdict_reuses", [](B b) { return b.iso_verdict_reuses; }, counter},
    {"encode_transfer_builds", [](B b) { return b.encode_transfer_builds; }, counter},
    {"encode_transfer_reuses", [](B b) { return b.encode_transfer_reuses; }, counter},
    {"escalations", [](B b) { return b.escalations; }, counter},
    {"escalations_rescued", [](B b) { return b.escalations_rescued; }, counter},
    {"workers_crashed", [](B b) { return b.pool.workers_crashed; }, counter},
    {"jobs_abandoned", [](B b) { return b.pool.jobs_abandoned; }, counter},
    {"quarantined", [](B b) { return b.degradation.quarantined; }, counter},
    // A crashed worker is only respawned (and its jobs requeued) while work
    // remains, so these depend on which worker drains the queue first.
    {"workers_spawned", [](B b) { return b.pool.workers_spawned; }, scheduling},
    {"workers_respawned", [](B b) { return b.degradation.workers_respawned; }, scheduling},
    {"jobs_requeued", [](B b) { return b.pool.jobs_requeued; }, scheduling},
    {"plan_ms", [](B b) { return ms(b.plan_time); }, timing},
    {"total_ms", [](B b) { return ms(b.total_time); }, timing},
    {"solve_p50_ms", [](B b) { return ms(b.pool.solve_histogram.percentile(50)); }, timing},
    {"solve_p95_ms", [](B b) { return ms(b.pool.solve_histogram.percentile(95)); }, timing},
    {"solve_max_ms", [](B b) { return ms(b.pool.solve_histogram.max()); }, timing},
};

}  // namespace

std::span<const CounterRow> counter_table() { return kRows; }

std::size_t counter_value(const BatchResult& result, std::string_view name) {
  for (const CounterRow& row : kRows) {
    if (row.name == name) return row.get(result);
  }
  throw Error("no counter named '" + std::string(name) + "'");
}

}  // namespace vmn::verify
