// The one counter vocabulary. The CLI summary, serve STATS, wire RESULT
// frames and the bench JSON records all render the counters declared here,
// so they cannot drift apart:
//  - SessionCounters: the solver traffic a SolverSession counts, a wire
//    worker ships per job, and the executor sums into BatchResult (which
//    inherits it). +=, - and the wire codec loop over kSessionFields.
//  - counter_table(): one (name, getter, kind) row per BatchResult counter.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

namespace vmn::verify {

struct SessionCounters {
  /// Base encodings + solver contexts built (cold binds and warm misses).
  std::size_t warm_binds = 0;
  /// Jobs answered on a reused live context.
  std::size_t warm_reuses = 0;
  /// Of the warm reuses, jobs rebound onto an isomorphic representative's
  /// base encoding (cross-isomorphic reuse, see verify::IsoBinding).
  std::size_t iso_reuses = 0;
  /// Transfer functions built by encoders vs served from a warm memo: no
  /// scenario's fabric walks run twice in one session, and a one-worker
  /// run, lending the planner's own memo, encodes with zero builds.
  std::size_t encode_transfer_builds = 0;
  std::size_t encode_transfer_reuses = 0;
  /// Unknown verdicts retried on an escalated context / of those, the
  /// retries that came back definitive.
  std::size_t escalations = 0;
  std::size_t escalations_rescued = 0;

  SessionCounters& operator+=(const SessionCounters& other);
  /// Field-wise `a - b`, where `b` is an earlier snapshot of `a`.
  friend SessionCounters operator-(SessionCounters a, const SessionCounters& b);
};

struct SessionField {
  std::string_view name;
  std::size_t SessionCounters::*field;
};

/// Every SessionCounters field, in RESULT-frame order (wire v4).
inline constexpr std::array<SessionField, 7> kSessionFields{{
    {"warm_binds", &SessionCounters::warm_binds},
    {"warm_reuses", &SessionCounters::warm_reuses},
    {"iso_reuses", &SessionCounters::iso_reuses},
    {"encode_transfer_builds", &SessionCounters::encode_transfer_builds},
    {"encode_transfer_reuses", &SessionCounters::encode_transfer_reuses},
    {"escalations", &SessionCounters::escalations},
    {"escalations_rescued", &SessionCounters::escalations_rescued},
}};
static_assert(sizeof(SessionCounters) ==
                  kSessionFields.size() * sizeof(std::size_t),
              "every SessionCounters field must be listed in kSessionFields");

inline SessionCounters& SessionCounters::operator+=(
    const SessionCounters& other) {
  for (const SessionField& f : kSessionFields) this->*f.field += other.*f.field;
  return *this;
}

inline SessionCounters operator-(SessionCounters a, const SessionCounters& b) {
  for (const SessionField& f : kSessionFields) a.*f.field -= b.*f.field;
  return a;
}

struct BatchResult;

/// How a value behaves across runs of one (spec, plan, jobs): `counter`s
/// repeat exactly, `timing`s vary with the machine, `scheduling` values
/// with which worker drains the queue first.
enum class CounterKind : std::uint8_t { counter, timing, scheduling };

struct CounterRow {
  std::string_view name;
  std::size_t (*get)(const BatchResult&);
  CounterKind kind;
};

/// Every BatchResult counter, in rendering order (timings in ms).
[[nodiscard]] std::span<const CounterRow> counter_table();

/// The value of the row `name`; throws vmn::Error for an unknown name.
[[nodiscard]] std::size_t counter_value(const BatchResult& result,
                                        std::string_view name);

}  // namespace vmn::verify
