// chat_burst and assistant_rag: closed loops against one Server.
//
// One thread both submits and drives Server::step(); completions are
// detected at step boundaries, so which sessions share a batch step depends
// only on the seed, never on timing. Token timestamps come from the
// streaming callback, which fires on this same thread inside step().

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <utility>

#include "core/pipeline.hpp"
#include "data/corpus.hpp"
#include "host.hpp"
#include "inputs.hpp"
#include "model/checkpoint.hpp"
#include "nn/infer.hpp"
#include "rag/retrieval.hpp"
#include "serve/server.hpp"
#include "trace.hpp"
#include "util/mem_probe.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace chipalign;

namespace {

/// One request of a closed loop: what to send, and what came back.
struct Op {
  std::string question;  ///< assistant_rag: the engineer's question
  std::string header;    ///< assistant_rag: its instruction header
  std::string prompt;
  GenerateOptions gen;
  bool stop_at_newline = false;
  TokenTimes times;
  std::optional<SessionResult> result;
  std::string error;  ///< submit() failure
  double submit_us = 0.0;
};

struct LoopResult {
  double begin_ms = 0.0;
  double end_ms = 0.0;
  ServerStats before;
  ServerStats after;
  std::size_t kv_peak_bytes = 0;
  std::vector<double> step_ms;
};

/// Fills op.prompt at send time (after its send timestamp is taken), doing
/// any work on the request's critical path before submit under spans.
using Prepare = std::function<void(std::size_t index, Op& op, Tracer*)>;

/// Runs ops[0..n) through `server` keeping `clients` requests in flight.
/// Each client sends its next request as soon as the previous one
/// completes. `sample_kv` polls resident KV bytes after every step.
LoopResult closed_loop(Server& server, std::vector<Op>& ops,
                       std::size_t clients, const Prepare& prepare,
                       Tracer* tracer, bool sample_kv) {
  LoopResult loop;
  loop.before = server.stats();
  std::vector<std::pair<SessionId, std::size_t>> in_flight;
  std::size_t next = 0;

  const auto send = [&](std::size_t i) {
    Op& op = ops[i];
    op.times.send_ms = now_ms();
    prepare(i, op, tracer);
    Request request =
        server.text_request(op.prompt, op.gen, op.stop_at_newline);
    request.on_token = [&op](SessionId, TokenId) {
      op.times.token_ms.push_back(now_ms());
    };
    Span span(tracer, "serve.submit", static_cast<std::int64_t>(i));
    const double start = now_ms();
    try {
      in_flight.emplace_back(server.submit(std::move(request)), i);
    } catch (const std::exception& e) {
      op.error = e.what();
    }
    op.submit_us = (now_ms() - start) * 1e3;
  };

  loop.begin_ms = now_ms();
  for (;;) {
    while (next < ops.size() && in_flight.size() < clients) send(next++);
    if (in_flight.empty()) break;
    const std::int64_t step_id =
        clients == 1 ? static_cast<std::int64_t>(in_flight.front().second)
                     : -1;
    bool progressed = false;
    {
      Span span(tracer, "serve.step", step_id);
      const double start = now_ms();
      progressed = server.step();
      loop.step_ms.push_back(now_ms() - start);
    }
    if (sample_kv) {
      loop.kv_peak_bytes =
          std::max(loop.kv_peak_bytes, server.stats().resident_kv_bytes);
    }
    Span span(tracer, "serve.poll", step_id);
    std::size_t kept = 0;
    for (const auto& [id, index] : in_flight) {
      std::optional<SessionResult> result = server.wait_result_for(id, 0);
      if (!result && progressed) {
        in_flight[kept++] = {id, index};
        continue;
      }
      Op& op = ops[index];
      if (result) {
        op.result = std::move(result);
      } else {
        op.error = "server went idle with the session unfinished";
      }
      if (tracer != nullptr && !op.times.token_ms.empty()) {
        tracer->add_async("request", static_cast<std::int64_t>(index),
                          op.times.send_ms, op.times.token_ms.back());
      }
    }
    in_flight.resize(kept);
  }
  loop.end_ms = now_ms();
  loop.after = server.stats();
  return loop;
}

/// The serving model, produced the way chip_assistant produces its model:
/// chip and instruct checkpoints loaded from safetensors and merged with
/// ChipAlign at lambda 0.6.
std::unique_ptr<TransformerModel> load_merged_model(const std::string& dir) {
  const Checkpoint chip = Checkpoint::load(serving_chip_path(dir));
  const Checkpoint instruct = Checkpoint::load(serving_instruct_path(dir));
  const Checkpoint merged = run_merge("chipalign", chip, instruct, chip, 0.6);
  return std::make_unique<TransformerModel>(
      TransformerModel::from_checkpoint(merged));
}

/// What the serving workloads share: a set-up, a loop shape, checks.
struct ServeWorkload {
  ServeConfig config;
  std::size_t clients = 1;
  std::size_t setup_runs = 5;
  bool load_index = false;
  std::size_t check_samples = 1;  ///< outputs compared with generate()
  std::vector<Op> warmup;
  std::vector<Op> ops;
  Prepare prepare;
  const RetrievalPipeline* rag = nullptr;  ///< set after set-up
};

struct Served {
  std::unique_ptr<TransformerModel> model;
  std::unique_ptr<RetrievalPipeline> rag;
};

/// Sets up `runs` times (model merge + Server, plus the index when asked);
/// returns the last set-up and the per-run times.
Served set_up(const RunOptions& options, const ServeWorkload& workload,
              RunReport& report) {
  Served served;
  std::vector<double> setup_s;
  std::vector<double> load_s;
  for (std::size_t run = 0; run < workload.setup_runs; ++run) {
    served = Served{};
    const double start = now_ms();
    served.model = load_merged_model(options.input_dir);
    if (workload.load_index) {
      const double load_start = now_ms();
      served.rag = std::make_unique<RetrievalPipeline>(
          RetrievalPipeline::load(rag_index_path(options.input_dir)));
      load_s.push_back((now_ms() - load_start) / 1e3);
    }
    Server server(*served.model, workload.config);
    setup_s.push_back((now_ms() - start) / 1e3);
  }
  report.set("setup_s", median(setup_s), "s");
  if (!load_s.empty()) report.set("rag.load_s", median(load_s), "s");
  report.line(format("setup: %zu runs, median %.4f s (min %.4f, max %.4f)",
                     setup_s.size(), median(setup_s),
                     *std::min_element(setup_s.begin(), setup_s.end()),
                     *std::max_element(setup_s.begin(), setup_s.end())));
  return served;
}

/// One pass over the workload on a fresh Server: untimed warm-up, then the
/// timed closed loop.
LoopResult serve_pass(const TransformerModel& model,
                      const ServeWorkload& workload, std::vector<Op>& ops,
                      Tracer* tracer, bool sample_kv) {
  Server server(model, workload.config);
  std::vector<Op> warmup = workload.warmup;
  closed_loop(server, warmup, workload.clients, workload.prepare, nullptr,
              false);
  return closed_loop(server, ops, workload.clients, workload.prepare, tracer,
                     sample_kv);
}

/// serve.* metrics of one pass: step times, exact work counts, prefix-cache
/// use, submit cost and the resident KV peak (when sampled).
void report_serve_layer(const LoopResult& loop, const std::vector<Op>& ops,
                        RunReport& report) {
  const std::int64_t steps = loop.after.steps - loop.before.steps;
  const std::int64_t step_tokens =
      loop.after.step_tokens - loop.before.step_tokens;
  std::int64_t prompt_tokens = 0;
  std::int64_t cached_tokens = 0;
  std::vector<double> submit_us;
  for (const Op& op : ops) {
    submit_us.push_back(op.submit_us);
    if (!op.result) continue;
    prompt_tokens += op.result->prompt_tokens;
    cached_tokens += op.result->cached_tokens;
  }
  report.set("serve.step_ms_p50", median(loop.step_ms), "ms");
  report.set("serve.step_ms_p99", percentile(loop.step_ms, 99.0), "ms");
  report.set("serve.steps", static_cast<double>(steps), "count");
  report.set("serve.batch_mean",
             steps > 0 ? static_cast<double>(step_tokens) /
                             static_cast<double>(steps)
                       : 0.0,
             "rows");
  report.set("serve.prefill_tokens",
             static_cast<double>(prompt_tokens - cached_tokens), "count");
  report.set("serve.cached_tokens", static_cast<double>(cached_tokens),
             "count");
  report.set("serve.prefix_hit_rate",
             prompt_tokens > 0 ? static_cast<double>(cached_tokens) /
                                     static_cast<double>(prompt_tokens)
                               : 0.0,
             "fraction");
  report.set("serve.submit_us_p50", median(submit_us), "us");
  report.set("serve.resident_kv_mb_peak",
             mb(static_cast<double>(loop.kv_peak_bytes)), "MB");
}

void report_percentile(RunReport& report, const std::string& name,
                       const std::vector<double>& samples, double p) {
  if (percentile_reportable(samples.size(), p)) {
    report.set(name, percentile(samples, p), "ms");
  } else {
    report.line(format("%s not reported: %zu samples leave fewer than 10 "
                       "beyond %s",
                       name.c_str(), samples.size(),
                       percentile_label(p).c_str()));
  }
}

void run_serving(const RunOptions& options, ServeWorkload& workload,
                 RunReport& report) {
  const Served served = set_up(options, workload, report);
  if (options.setup_only) return;
  const TransformerModel& model = *served.model;
  workload.rag = served.rag.get();

  // Timed pass, untraced.
  std::vector<Op> ops = workload.ops;
  const CpuTimes cpu_begin = read_cpu_times();
  const LoopResult loop =
      serve_pass(model, workload, ops, nullptr, /*sample_kv=*/false);
  const CpuTimes cpu_end = read_cpu_times();
  report.set("peak_rss_mb", mb(static_cast<double>(peak_rss_bytes())), "MB");
  report_host(steal_fraction(cpu_begin, cpu_end), report);

  // Per-operation accounting and the latency samples.
  std::vector<double> latency;
  std::vector<double> ttft;
  std::vector<double> itl;
  std::int64_t completed_ops = 0;
  std::int64_t tokens = 0;
  std::int64_t prompt_tokens = 0;
  std::int64_t cached_tokens = 0;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    const bool completed =
        op.result && op.result->status == SessionStatus::kCompleted;
    report.failures.record(completed);
    if (!completed) {
      report.line(format("request %zu failed: %s", i,
                         op.result ? session_status_name(op.result->status)
                                   : op.error.c_str()));
    }
    if (!op.result) continue;
    completed_ops += completed ? 1 : 0;
    // The streaming callback must have seen exactly the emitted tokens.
    report.failures.check(!completed || op.times.token_ms.size() ==
                                            op.result->tokens.size());
    tokens += static_cast<std::int64_t>(op.result->tokens.size());
    prompt_tokens += op.result->prompt_tokens;
    cached_tokens += op.result->cached_tokens;
    const RequestTiming timing = extract_timing(op.times);
    if (!timing.has_tokens) continue;
    latency.push_back(timing.latency_ms);
    ttft.push_back(timing.ttft_ms);
    itl.insert(itl.end(), timing.itl_ms.begin(), timing.itl_ms.end());
  }

  // Served output == generate() on a seeded sample (untimed).
  Rng pick(derive_seed(options.seed, "check"));
  for (std::size_t s = 0; s < workload.check_samples; ++s) {
    const std::size_t index = pick.uniform_index(ops.size());
    const Op& op = ops[index];
    if (!op.result) continue;  // already counted as failed
    const std::string expected =
        generate(model, op.prompt, op.gen, op.stop_at_newline);
    const bool equal = expected == op.result->text;
    report.failures.check(equal);
    report.line(format("check: request %zu served output %s generate()",
                       index, equal ? "==" : "!="));
  }

  const double wall_s = (loop.end_ms - loop.begin_ms) / 1e3;
  report.set("ops_per_s", static_cast<double>(completed_ops) / wall_s, "1/s");
  report.set("tokens_per_s", static_cast<double>(tokens) / wall_s, "tok/s");
  report.set("latency_p50_ms", median(latency), "ms");
  const double tail = tail_percentile(latency.size());
  if (tail > 0.0) report.set("latency_tail_ms", percentile(latency, tail), "ms");
  report_percentile(report, "latency_p90_ms", latency, 90.0);
  report.set("ttft_p50_ms", median(ttft), "ms");
  report_percentile(report, "ttft_p90_ms", ttft, 90.0);
  report.set("itl_p50_ms", median(itl), "ms");
  report_percentile(report, "itl_p99_ms", itl, 99.0);
  report.set("failed_frac", report.failures.fraction(), "fraction");
  report.line(format("timed: %zu requests, %lld tokens in %.3f s; latency "
                     "tail is %s of %zu; %zu ITL gaps",
                     ops.size(), static_cast<long long>(tokens), wall_s,
                     percentile_label(tail).c_str(), latency.size(),
                     itl.size()));

  // Exact work counts (identical for a given seed).
  const std::int64_t steps = loop.after.steps - loop.before.steps;
  const std::int64_t step_tokens =
      loop.after.step_tokens - loop.before.step_tokens;
  report.line(format("work: %lld steps, %lld step tokens, %lld emitted "
                     "tokens, %lld prompt tokens, %lld served from cache",
                     static_cast<long long>(steps),
                     static_cast<long long>(step_tokens),
                     static_cast<long long>(tokens),
                     static_cast<long long>(prompt_tokens),
                     static_cast<long long>(cached_tokens)));
  if (!options.trace) return;

  // Traced run: per-layer replays, then the same operations again on a
  // fresh Server with spans around every call into a layer.
  replay_serving_layers(model, report);
  if (served.rag) {
    std::vector<std::string> questions;
    for (const Op& op : workload.ops) questions.push_back(op.question);
    replay_rag(*served.rag, questions, report);
  } else {
    replay_rag_fixture(options.seed, options.work_dir, report);
  }
  replay_stream_fixture(serving_chip_path(options.input_dir),
                        serving_instruct_path(options.input_dir),
                        options.work_dir, report);
  // This workload merges at set-up, but not at the 1024x1024 shape.
  replay_merge_tensor(options.seed, report);
  report.mark_fixture("merge.");

  Tracer tracer;
  std::vector<Op> traced_ops = workload.ops;
  const LoopResult traced =
      serve_pass(model, workload, traced_ops, &tracer, /*sample_kv=*/true);
  report_serve_layer(traced, traced_ops, report);
  report_trace(tracer, traced.begin_ms, traced.end_ms,
               traced.end_ms - traced.begin_ms, loop.end_ms - loop.begin_ms,
               options, report);
}

/// Requests per timed run: the nominal rate on a 4-vCPU host times the run
/// length, with a floor that keeps the latency tail at p75 or above. Fixed
/// by the arguments alone, so the same seed always does the same work.
std::size_t op_count(double seconds, double nominal_rate, std::size_t floor) {
  return std::max(floor,
                  static_cast<std::size_t>(seconds * nominal_rate + 0.5));
}

std::vector<Op> chat_ops(const std::vector<ChatSpec>& specs) {
  std::vector<Op> ops(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    ops[i].prompt = specs[i].prompt;
    ops[i].gen.max_new_tokens = specs[i].max_new_tokens;
  }
  return ops;
}

}  // namespace

void run_chat_burst(const RunOptions& options, RunReport& report) {
  ServeWorkload workload;
  workload.clients = 32;
  workload.check_samples = 4;
  // ServeConfig defaults: 32 resident sessions, batch 16, no prefix cache.
  workload.warmup =
      chat_ops(chat_requests(derive_seed(options.seed, "warmup"), 32));
  workload.ops = chat_ops(
      chat_requests(options.seed, op_count(options.seconds, 7.0, 40)));
  workload.prepare = [](std::size_t, Op&, Tracer*) {};
  run_serving(options, workload, report);
}

void run_assistant_rag(const RunOptions& options, RunReport& report) {
  ServeWorkload workload;
  workload.clients = 1;
  workload.load_index = true;
  workload.setup_runs = 3;
  workload.config.prefix_cache_bytes = std::size_t{1} << 24;
  const FactBase facts = rag_facts(options.seed);
  const std::size_t count = op_count(options.seconds, 2.8, 40);
  constexpr std::size_t kWarmup = 6;
  const auto items = rag_questions(facts, options.seed, count + kWarmup);
  for (std::size_t i = 0; i < items.size(); ++i) {
    Op op;
    op.question = items[i].question;
    op.header = instruction_header(items[i].instructions);
    op.gen.max_new_tokens = 24;
    op.stop_at_newline = true;
    (i < kWarmup ? workload.warmup : workload.ops).push_back(std::move(op));
  }
  // Retrieval and prompt assembly sit on the request's critical path: the
  // send timestamp is taken before them.
  workload.prepare = [&workload](std::size_t i, Op& op, Tracer* tracer) {
    const auto id = static_cast<std::int64_t>(i);
    std::vector<std::string> chunks;
    {
      Span span(tracer, "rag.retrieve", id);
      chunks = workload.rag->retrieve_texts(op.question, 2);
    }
    Span span(tracer, "prompt.build", id);
    op.prompt = qa_prompt(assistant_preamble() + op.header, chunks,
                          op.question);
  };
  run_serving(options, workload, report);
}

void replay_serve_fixture(const TransformerModel& model, std::uint64_t seed,
                          RunReport& report) {
  ServeWorkload workload;
  workload.clients = 16;
  workload.warmup = chat_ops(chat_requests(derive_seed(seed, "warmup"), 4));
  workload.ops =
      chat_ops(chat_requests(derive_seed(seed, "serve-fixture"), 16));
  workload.prepare = [](std::size_t, Op&, Tracer*) {};
  std::vector<Op> ops = workload.ops;
  const LoopResult loop =
      serve_pass(model, workload, ops, nullptr, /*sample_kv=*/true);
  report_serve_layer(loop, ops, report);
  report.mark_fixture("serve.");
  report.line(
      "serve layer replayed as 16 chat requests on a random-init serving "
      "model (this workload serves nothing)");
}

}  // namespace perfbench
