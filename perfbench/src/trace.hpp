#pragma once
/// \file trace.hpp
/// \brief In-memory span recorder for the traced benchmark run.
///
/// The benchmark wraps each of its own calls into a layer in a Span. Spans
/// are kept in memory and written once at the end as Chrome trace-event
/// JSON (opens in Perfetto / chrome://tracing). Untraced runs pass a null
/// Tracer, so they pay one branch per span.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic milliseconds since an arbitrary process-wide epoch.
double now_ms();

class Tracer {
 public:
  struct Record {
    const char* name = "";
    std::int64_t id = -1;      ///< request/operation id; -1 = none
    int parent = -1;           ///< index of the enclosing span, -1 = root
    double start_ms = 0.0;
    double end_ms = 0.0;
  };

  /// One row of the per-name breakdown.
  struct Row {
    std::string name;
    std::int64_t calls = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;  ///< total minus time covered by child spans
    double share = 0.0;    ///< total_ms / window wall
  };

  /// Opens a span (returns its index); nests under the innermost open span.
  int begin(const char* name, std::int64_t id = -1);
  void end(int index);

  /// Records an operation's whole lifetime (e.g. a request from send to
  /// its last token). Written as an async slice on its own track; not part
  /// of the breakdown, whose spans are the calls on the blocking thread.
  void add_async(const char* name, std::int64_t id, double start_ms,
                 double end_ms);

  const std::vector<Record>& records() const { return records_; }

  /// Per-name {calls, total, self, share} over spans, share taken against
  /// `window_ms`. Sorted by total time, largest first.
  std::vector<Row> breakdown(double window_ms) const;

  /// Summed duration of the root spans (those with no parent) that start
  /// inside [begin_ms, end_ms]: the covered part of the blocking thread.
  double root_ms(double begin_ms, double end_ms) const;

  /// Writes every span as a Chrome "X" (complete) event on one thread,
  /// with its id under args, plus the async operation slices.
  void write_chrome_json(const std::string& path) const;

 private:
  std::vector<Record> records_;
  std::vector<Record> async_;
  std::vector<int> open_;
};

/// RAII span; a no-op on a null tracer.
class Span {
 public:
  Span(Tracer* tracer, const char* name, std::int64_t id = -1)
      : tracer_(tracer),
        index_(tracer_ != nullptr ? tracer_->begin(name, id) : -1) {}
  ~Span() {
    if (tracer_ != nullptr) tracer_->end(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  int index_;
};

}  // namespace perfbench
