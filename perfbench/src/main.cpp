// perfbench — the repository benchmark's measuring program.
//
//   perfbench gen --workload W --seed N --dir DIR
//       writes the seed's on-disk inputs (checkpoints, persisted index)
//   perfbench run --workload W --seed N --seconds S --trace 0|1
//                 --dir DIR --work-dir DIR [--trace-out FILE]
//       set-up, warm-up, timed run, correctness checks; with --trace 1 also
//       the per-layer replays and a traced pass
//   perfbench setup (same arguments as run)
//       only the set-up, repeated as in `run`, for setup_s
//
// `run` prints a human report, then as its last line one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}
// holding every metric it measured; a metric replayed on a same-seed
// fixture instead of the workload's own work also carries "fixture": true.
// perfbench/run.py builds this program, caches inputs per seed, and narrows
// the metrics to BENCHMARK.json's list.
//
// Workloads: chat_burst, assistant_rag, merge_stream (see README.md).

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "inputs.hpp"
#include "util/logging.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

int usage() {
  std::fprintf(stderr,
               "usage: perfbench gen --workload W --seed N --dir DIR\n"
               "       perfbench run|setup --workload W --seed N --seconds S "
               "--trace 0|1 --dir DIR --work-dir DIR [--trace-out FILE]\n");
  return 2;
}

/// JSON number with all its digits; a non-finite value becomes null, which
/// run.py rejects.
std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char text[64];
  std::snprintf(text, sizeof(text), "%.17g", value);
  return text;
}

void print_result(const RunReport& report) {
  for (const std::string& line : report.lines) {
    std::printf("%s\n", line.c_str());
  }
  std::printf("%-28s %16s  %s\n", "metric", "value", "unit");
  for (const auto& [name, metric] : report.metrics) {
    std::printf("%-28s %16.6g  %s%s\n", name.c_str(), metric.value,
                metric.unit.c_str(), metric.fixture ? "  (fixture)" : "");
  }
  std::string json = "{\"correct\": ";
  json += report.failures.failed() == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.failures.attempted());
  json += ", \"failed\": " + std::to_string(report.failures.failed());
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : report.metrics) {
    if (!first) json += ", ";
    first = false;
    json += "\"" + name + "\": {\"value\": " + json_number(metric.value) +
            ", \"unit\": \"" + metric.unit + "\"" +
            (metric.fixture ? ", \"fixture\": true}" : "}");
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  RunOptions options;
  bool have_seed = false;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--dir") {
      options.input_dir = value;
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else {
      return usage();
    }
  }
  if (options.workload.empty() || !have_seed || options.input_dir.empty()) {
    return usage();
  }
  chipalign::set_log_level(chipalign::LogLevel::kWarn);
  try {
    if (command == "gen") {
      generate_inputs(options.workload, options.seed, options.input_dir);
      return 0;
    }
    if ((command != "run" && command != "setup") ||
        options.work_dir.empty() || !(options.seconds > 0.0)) {
      return usage();
    }
    options.setup_only = command == "setup";
    host_parallelism();
    RunReport report;
    report.line("perfbench " + options.workload + " seed " +
                std::to_string(options.seed) +
                format(" seconds %g trace %d", options.seconds,
                       options.trace ? 1 : 0));
    if (options.workload == "chat_burst") {
      run_chat_burst(options, report);
    } else if (options.workload == "assistant_rag") {
      run_assistant_rag(options, report);
    } else if (options.workload == "merge_stream") {
      run_merge_stream(options, report);
    } else {
      std::fprintf(stderr, "unknown workload '%s'\n",
                   options.workload.c_str());
      return 2;
    }
    print_result(report);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
