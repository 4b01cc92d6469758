#pragma once
/// \file workloads.hpp
/// \brief The three benchmark workloads and the report they fill.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "stats.hpp"

namespace chipalign {
class RetrievalPipeline;
class TransformerModel;
struct StreamingMergeReport;
}

namespace perfbench {

struct Metric {
  double value = 0.0;
  std::string unit;
  /// Measured on a same-seed fixture, not on the workload's own work.
  bool fixture = false;
};

/// Everything one run measured. `metrics` holds end-to-end and per-layer
/// values under their published names; `lines` is the human report.
struct RunReport {
  std::map<std::string, Metric> metrics;
  std::vector<std::string> lines;
  FailureCount failures;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Marks every metric whose name starts with `prefix` as a fixture value.
  void mark_fixture(const std::string& prefix) {
    for (auto& [name, metric] : metrics) {
      if (name.starts_with(prefix)) metric.fixture = true;
    }
  }
  void line(const std::string& text) { lines.push_back(text); }
};

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  bool setup_only = false;  ///< measure set-up (setup_s) and stop
  std::string input_dir;  ///< per-seed inputs written by `perfbench gen`
  std::string work_dir;   ///< scratch space for outputs (merge shards)
  std::string trace_out;  ///< Chrome trace JSON path (traced runs)
};

/// Closed-loop serving workloads (workload_serve.cpp).
void run_chat_burst(const RunOptions& options, RunReport& report);
void run_assistant_rag(const RunOptions& options, RunReport& report);

/// Back-to-back streaming merges (workload_merge.cpp).
void run_merge_stream(const RunOptions& options, RunReport& report);

// -- per-layer replays (layers.cpp) -----------------------------------------

/// nn.decode_step_ms, nn.batched_decode_step_ms and the tensor.* kernel
/// timings at a serving model's own projection shapes.
void replay_serving_layers(const chipalign::TransformerModel& model,
                           RunReport& report);

/// rag.retrieve_ms_p50/p99, rag.bm25_ms_p50, rag.ann_ms_p50 over
/// `questions` (cycled).
void replay_rag(const chipalign::RetrievalPipeline& rag,
                const std::vector<std::string>& questions, RunReport& report);

/// All rag.* metrics on the fact-base-only index chip_assistant serves
/// from, built, persisted and loaded under `work_dir`.
void replay_rag_fixture(std::uint64_t seed, const std::string& work_dir,
                        RunReport& report);

/// stream.* metrics from merge reports (medians) and source open times.
void report_stream_layer(
    const std::vector<chipalign::StreamingMergeReport>& merges,
    const std::vector<double>& open_ms, RunReport& report);

/// All stream.* metrics from streaming merges of two checkpoint files.
void replay_stream_fixture(const std::string& chip_path,
                           const std::string& instruct_path,
                           const std::string& work_dir, RunReport& report);

/// merge.merge_tensor_ms: Merger::merge_tensor on one seeded 1024x1024 pair.
void replay_merge_tensor(std::uint64_t seed, RunReport& report);

/// All serve.* metrics from a short chat closed loop on `model` (for the
/// workload that serves nothing itself; workload_serve.cpp).
void replay_serve_fixture(const chipalign::TransformerModel& model,
                          std::uint64_t seed, RunReport& report);

/// The busy-loop parallelism probe, run once per process. main() runs it
/// before set-up, which also brings every vCPU out of idle first.
double host_parallelism();

/// Host diagnostics (host.*) every report carries; `steal` is the steal
/// share measured over the timed window.
void report_host(double steal, RunReport& report);

/// Adds trace.coverage (root spans over the traced window) and
/// trace.overhead_frac (traced vs. untraced timed wall, same operations)
/// plus the per-span breakdown table to the report, and writes the Chrome
/// trace.
class Tracer;
void report_trace(const Tracer& tracer, double window_begin_ms,
                  double window_end_ms, double traced_wall_ms,
                  double untraced_wall_ms, const RunOptions& options,
                  RunReport& report);

/// Bytes to MiB.
inline double mb(double bytes) { return bytes / (1024.0 * 1024.0); }

/// printf-style formatting into a std::string.
std::string format(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace perfbench
