// In-memory span recorder for the benchmark driver.
//
// A span is one timed call into a layer of libvmn, made from the driver:
// its name (the layer, e.g. "slice.plan"), start and end in microseconds on
// the steady clock since the tracer was created, the index of the span it
// nests in (-1 for a root) and the operation it belongs to. Spans stay in
// memory while the benchmark runs and are written out once, at exit, so
// recording costs two clock reads and a vector append.
//
// A disabled tracer records nothing; Scope still measures its own duration,
// so the same code path times untraced and traced operations alike.
#pragma once

#include <chrono>
#include <cstdint>
#include <iomanip>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace vmnbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double micros_between(Clock::time_point a,
                                           Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

struct Span {
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
  int parent = -1;
  long op = -1;

  [[nodiscard]] double duration_us() const { return end_us - start_us; }
};

/// Total and self time of every span sharing one name.
struct SpanTotals {
  std::size_t count = 0;
  double total_us = 0.0;
  double self_us = 0.0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  /// Times one call; records a span on destruction when the tracer is on.
  class Scope {
   public:
    Scope(Tracer& tracer, std::string name, long op)
        : tracer_(tracer), start_(Clock::now()) {
      if (tracer_.enabled_) {
        index_ = static_cast<int>(tracer_.spans_.size());
        const int parent = tracer_.open_.empty() ? -1 : tracer_.open_.back();
        tracer_.spans_.push_back(
            Span{std::move(name), tracer_.since_origin(start_), 0.0, parent,
                 op});
        tracer_.open_.push_back(index_);
      }
    }
    ~Scope() { close(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Ends the span now and returns its duration (idempotent).
    double close() {
      if (!closed_) {
        closed_ = true;
        const Clock::time_point end = Clock::now();
        elapsed_us_ = micros_between(start_, end);
        if (index_ >= 0) {
          tracer_.spans_[static_cast<std::size_t>(index_)].end_us =
              tracer_.since_origin(end);
          tracer_.open_.pop_back();
        }
      }
      return elapsed_us_;
    }

   private:
    Tracer& tracer_;
    Clock::time_point start_;
    int index_ = -1;
    bool closed_ = false;
    double elapsed_us_ = 0.0;
  };

  [[nodiscard]] Scope span(std::string name, long op) {
    return Scope(*this, std::move(name), op);
  }

  /// Switches recording for the spans opened from now on.
  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// Per-name totals over the spans whose root span is named `root`. Self
  /// time is a span's duration minus the time its direct children cover;
  /// children never overlap, because the driver calls one layer at a time.
  [[nodiscard]] std::map<std::string, SpanTotals> totals(
      const std::string& root) const {
    std::vector<double> child_us(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child_us[static_cast<std::size_t>(s.parent)] += s.duration_us();
      }
    }
    std::map<std::string, SpanTotals> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[root_of(i)].name != root) continue;
      SpanTotals& t = out[spans_[i].name];
      ++t.count;
      t.total_us += spans_[i].duration_us();
      t.self_us += spans_[i].duration_us() - child_us[i];
    }
    return out;
  }

  /// Writes every span as one JSON document.
  void write_json(std::ostream& os) const {
    os << std::fixed << std::setprecision(3) << "{\"spans\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << (i ? ",\n" : "\n") << "{\"id\":" << i << ",\"name\":\"" << s.name
         << "\",\"start_us\":" << s.start_us << ",\"end_us\":" << s.end_us
         << ",\"parent\":" << s.parent << ",\"op\":" << s.op << '}';
    }
    os << "\n]}\n";
  }

 private:
  [[nodiscard]] double since_origin(Clock::time_point t) const {
    return micros_between(origin_, t);
  }
  [[nodiscard]] std::size_t root_of(std::size_t i) const {
    while (spans_[i].parent >= 0) {
      i = static_cast<std::size_t>(spans_[i].parent);
    }
    return i;
  }

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace vmnbench
