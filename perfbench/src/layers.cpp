// Per-layer replays and the shared report helpers.
//
// The nn.* and tensor.* metrics are replayed on the serving model: the
// decode entry points on real session states, and each kernel on the
// model's own weight matrices at the shapes the decode path calls it with.
// Kernel GB/s figures are computed from tensor sizes (weights + activations
// + outputs, fp32), not measured with hardware counters.
//
// Every traced run reports every per-layer metric. A layer the workload
// drives itself is measured on the workload; the others are replayed on a
// small fixture of the same seed (README.md lists which is which) and its
// metrics are marked with RunReport::mark_fixture.

#include <cstdarg>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "host.hpp"
#include "inputs.hpp"
#include "merge/registry.hpp"
#include "nn/decode.hpp"
#include "nn/session_state.hpp"
#include "nn/transformer.hpp"
#include "rag/retrieval.hpp"
#include "stream/streaming_merge.hpp"
#include "stream/tensor_source.hpp"
#include "tensor/kernels/kernels.hpp"
#include "trace.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace chipalign;

std::string format(const char* fmt, ...) {
  char buffer[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buffer, sizeof(buffer), fmt, args);
  va_end(args);
  return buffer;
}

namespace {

/// Median wall time of `reps` calls of fn, in ms.
double median_ms(int reps, const std::function<void()>& fn) {
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const double start = now_ms();
    fn();
    samples.push_back(now_ms() - start);
  }
  return median(std::move(samples));
}

constexpr std::int64_t kBatch = 16;
constexpr std::int64_t kPrefill = 96;  ///< positions filled before timing
constexpr int kDecodeReps = 96;

}  // namespace

void replay_serving_layers(const TransformerModel& model, RunReport& report) {
  const ModelConfig& config = model.config();
  const auto vocab = static_cast<std::size_t>(config.vocab_size);
  const std::int64_t capacity = kPrefill + kDecodeReps + 8;
  DecodeScratch scratch(config, kBatch);
  std::vector<float> logits(static_cast<std::size_t>(kBatch) * vocab);
  const std::span<float> row(logits.data(), vocab);
  Rng rng(0x1A7E5);
  const auto token = [&] {
    return static_cast<TokenId>(4 + rng.uniform_index(vocab - 4));
  };

  // B = 1: the serial decode entry point assistant_rag runs on.
  {
    SessionState state(config, capacity);
    for (std::int64_t i = 0; i < kPrefill; ++i) {
      decode_step(model, state, scratch, token(), row);
    }
    report.set("nn.decode_step_ms", median_ms(kDecodeReps, [&] {
                 decode_step(model, state, scratch, token(), row);
               }),
               "ms");
  }
  // B = 16: the batched entry point chat_burst runs on.
  {
    std::vector<std::unique_ptr<SessionState>> states;
    std::vector<SessionState*> pointers;
    for (std::int64_t b = 0; b < kBatch; ++b) {
      states.push_back(std::make_unique<SessionState>(config, capacity));
      pointers.push_back(states.back().get());
      for (std::int64_t i = 0; i < kPrefill; ++i) {
        decode_step(model, *states.back(), scratch, token(), row);
      }
    }
    std::vector<TokenId> tokens(static_cast<std::size_t>(kBatch));
    report.set("nn.batched_decode_step_ms", median_ms(kDecodeReps, [&] {
                 for (TokenId& t : tokens) t = token();
                 batched_decode_step(model, pointers, tokens, scratch, logits,
                                     &global_thread_pool());
               }),
               "ms");
  }

  // Kernels at the decode path's shapes, on this model's weights.
  const TransformerBlock& block = model.blocks().front();
  struct Shape {
    const char* name;
    const Parameter* weight;
  };
  const Shape shapes[] = {{"qo", &block.q_proj},
                          {"kv", &block.k_proj},
                          {"gateup", &block.gate_proj},
                          {"down", &block.down_proj},
                          {"logits", &model.embed()}};
  for (const Shape& shape : shapes) {
    const float* w = shape.weight->value.data();
    const std::int64_t out = shape.weight->value.shape()[0];
    const std::int64_t in = shape.weight->value.shape()[1];
    std::vector<float> x(static_cast<std::size_t>(kBatch * in));
    for (float& v : x) v = static_cast<float>(rng.gaussian());
    std::vector<float> y(static_cast<std::size_t>(out * kBatch));
    const double weight_bytes = 4.0 * static_cast<double>(out * in);
    constexpr int kReps = 301;

    const double nt_ms = median_ms(kReps, [&] {
      kernels::matmul_nt(w, x.data(), y.data(), out, in, kBatch);
    });
    const double nt_bytes =
        weight_bytes + 4.0 * static_cast<double>(kBatch * (in + out));
    report.set(std::string("tensor.matmul_nt_us.") + shape.name, nt_ms * 1e3,
               "us");
    report.set(std::string("tensor.matmul_nt_gbps.") + shape.name,
               nt_bytes / (nt_ms * 1e-3) / 1e9, "GB/s");

    const double mv_ms = median_ms(kReps, [&] {
      kernels::matvec(w, x.data(), y.data(), out, in);
    });
    const double mv_bytes = weight_bytes + 4.0 * static_cast<double>(in + out);
    report.set(std::string("tensor.matvec_us.") + shape.name, mv_ms * 1e3,
               "us");
    report.set(std::string("tensor.matvec_gbps.") + shape.name,
               mv_bytes / (mv_ms * 1e-3) / 1e9, "GB/s");
  }
  report.line(
      "kernel GB/s are computed from tensor sizes (fp32 weights + "
      "activations + outputs), not measured");
}

void replay_rag(const RetrievalPipeline& rag,
                const std::vector<std::string>& questions,
                RunReport& report) {
  const std::size_t depth = rag.config().candidates_per_retriever;
  std::vector<double> retrieve_ms;
  std::vector<double> bm25_ms;
  std::vector<double> ann_ms;
  // 1010 retrievals leave 10 samples beyond p99.
  for (std::size_t q = 0; q < 1010; ++q) {
    const std::string& question = questions[q % questions.size()];
    const double start = now_ms();
    const auto texts = rag.retrieve_texts(question, 2);
    retrieve_ms.push_back(now_ms() - start);
  }
  for (std::size_t q = 0; q < 201; ++q) {
    const std::string& question = questions[q % questions.size()];
    double start = now_ms();
    const auto lexical = rag.bm25().query(question, depth);
    bm25_ms.push_back(now_ms() - start);
    start = now_ms();
    const std::vector<float> embedded = rag.dense().embedder().embed(question);
    const auto dense = rag.ann().query(embedded, depth, rag.config().ann_nprobe,
                                       rag.dense().embeddings());
    ann_ms.push_back(now_ms() - start);
  }
  report.set("rag.retrieve_ms_p50", median(retrieve_ms), "ms");
  report.set("rag.retrieve_ms_p99", percentile(retrieve_ms, 99.0), "ms");
  report.set("rag.bm25_ms_p50", median(bm25_ms), "ms");
  report.set("rag.ann_ms_p50", median(ann_ms), "ms");
}

void replay_rag_fixture(std::uint64_t seed, const std::string& work_dir,
                        RunReport& report) {
  const FactBase facts = rag_facts(seed);
  RetrievalConfig config;
  config.ann_nlist = 16;
  const std::string path = work_dir + "/fixture_index.bin";
  std::filesystem::create_directories(work_dir);
  RetrievalPipeline(facts.corpus_sentences(), config).save(path);
  std::vector<double> load_s;
  std::unique_ptr<RetrievalPipeline> rag;
  for (int run = 0; run < 5; ++run) {
    const double start = now_ms();
    rag = std::make_unique<RetrievalPipeline>(RetrievalPipeline::load(path));
    load_s.push_back((now_ms() - start) / 1e3);
  }
  report.set("rag.load_s", median(load_s), "s");
  std::vector<std::string> questions;
  for (const QaEvalItem& item : rag_questions(facts, seed, 64)) {
    questions.push_back(item.question);
  }
  replay_rag(*rag, questions, report);
  report.mark_fixture("rag.");
  report.line(format("rag layer replayed on the %zu-document fact-base "
                     "index (this workload retrieves nothing)",
                     rag->corpus_size()));
}

void report_stream_layer(const std::vector<StreamingMergeReport>& merges,
                         const std::vector<double>& open_ms,
                         RunReport& report) {
  if (merges.empty()) return;  // every merge failed; the run is incorrect
  std::vector<double> read_s, merge_s, write_s, overlap;
  double inflight_peak = 0.0;
  std::size_t retries = 0;
  for (const StreamingMergeReport& merge : merges) {
    read_s.push_back(merge.read_seconds);
    merge_s.push_back(merge.merge_seconds);
    write_s.push_back(merge.write_seconds);
    overlap.push_back((merge.read_seconds + merge.merge_seconds +
                       merge.write_seconds) /
                      merge.seconds);
    inflight_peak = std::max(
        inflight_peak, static_cast<double>(merge.max_inflight_bytes_observed));
    retries += merge.read_retries;
  }
  report.set("stream.open_ms", median(open_ms), "ms");
  report.set("stream.read_busy_s", median(read_s), "s");
  report.set("stream.merge_busy_s", median(merge_s), "s");
  report.set("stream.write_busy_s", median(write_s), "s");
  report.set("stream.overlap", median(overlap), "x");
  const StreamingMergeReport& first = merges.front();
  report.set("stream.mb_read", mb(static_cast<double>(first.bytes_read)),
             "MB");
  report.set("stream.mb_written", mb(static_cast<double>(first.bytes_written)),
             "MB");
  report.set("stream.checksums_verified",
             static_cast<double>(first.source_checksums_verified), "count");
  report.set("stream.read_retries", static_cast<double>(retries), "count");
  report.set("stream.inflight_peak_mb", mb(inflight_peak), "MB");
}

void replay_stream_fixture(const std::string& chip_path,
                           const std::string& instruct_path,
                           const std::string& work_dir, RunReport& report) {
  std::vector<double> open_ms;
  ShardedTensorSource chip;
  ShardedTensorSource instruct;
  for (int run = 0; run < 15; ++run) {
    double start = now_ms();
    chip = ShardedTensorSource::open(chip_path);
    open_ms.push_back(now_ms() - start);
    start = now_ms();
    instruct = ShardedTensorSource::open(instruct_path);
    open_ms.push_back(now_ms() - start);
  }
  const std::unique_ptr<Merger> merger = create_merger("chipalign");
  const std::string out = work_dir + "/fixture_merge";
  std::vector<StreamingMergeReport> merges;
  for (int run = 0; run < 7; ++run) {
    std::filesystem::remove_all(out);
    merges.push_back(
        merge_streaming(*merger, chip, instruct, nullptr, MergeOptions{},
                        StreamingMergeConfig{}, out));
  }
  std::filesystem::remove_all(out);
  report_stream_layer(merges, open_ms, report);
  report.mark_fixture("stream.");
  report.line(
      "stream layer replayed as a streaming merge of the serving "
      "checkpoints (this workload merges in memory at set-up)");
}

void replay_merge_tensor(std::uint64_t seed, RunReport& report) {
  Rng rng(derive_seed(seed, "merge-tensor"));
  const Shape shape{kMergeRows, kMergeCols};
  const Tensor chip = Tensor::randn(shape, rng, 0.05F);
  const Tensor instruct = Tensor::randn(shape, rng, 0.05F);
  const std::unique_ptr<Merger> merger = create_merger("chipalign");
  const MergeOptions options;
  std::vector<double> samples;
  for (int i = 0; i < 9; ++i) {
    Rng merge_rng = merge_tensor_rng(options, 0);
    const double start = now_ms();
    const Tensor merged = merger->merge_tensor("layers.000.weight", chip,
                                               instruct, nullptr, options,
                                               merge_rng);
    samples.push_back(now_ms() - start);
  }
  report.set("merge.merge_tensor_ms", median(samples), "ms");
}

double host_parallelism() {
  static const double parallelism = parallelism_probe(nproc());
  return parallelism;
}

void report_host(double steal, RunReport& report) {
  const double parallelism = host_parallelism();
  const auto pool_threads =
      static_cast<double>(global_thread_pool().size());
  report.set("host.steal_frac", steal, "fraction");
  report.set("host.parallelism", parallelism, "x");
  report.set("host.pool_threads", pool_threads, "count");
  report.set("host.nproc", static_cast<double>(nproc()), "count");
  report.line(format("host: nproc %zu, pool threads %.0f, busy-loop "
                     "parallelism %.2fx, steal %.3f over the timed window",
                     nproc(), pool_threads, parallelism, steal));
}

void report_trace(const Tracer& tracer, double window_begin_ms,
                  double window_end_ms, double traced_wall_ms,
                  double untraced_wall_ms, const RunOptions& options,
                  RunReport& report) {
  const double wall = window_end_ms - window_begin_ms;
  const double covered = tracer.root_ms(window_begin_ms, window_end_ms);
  const double coverage = wall > 0.0 ? covered / wall : 0.0;
  const double overhead =
      untraced_wall_ms > 0.0 ? traced_wall_ms / untraced_wall_ms - 1.0 : 0.0;
  report.set("trace.coverage", coverage, "fraction");
  report.set("trace.overhead_frac", overhead, "fraction");
  report.line(format("trace: %zu spans; root spans cover %.1f%% of the "
                     "%.1f ms timed wall; traced wall %+.1f%% vs untraced",
                     tracer.records().size(), coverage * 100.0, wall,
                     overhead * 100.0));
  report.line(format("  %-26s %8s %12s %12s %7s", "span", "calls",
                     "total_ms", "self_ms", "share"));
  for (const Tracer::Row& row : tracer.breakdown(wall)) {
    report.line(format("  %-26s %8lld %12.2f %12.2f %6.1f%%",
                       row.name.c_str(), static_cast<long long>(row.calls),
                       row.total_ms, row.self_ms, row.share * 100.0));
  }
  if (!options.trace_out.empty()) {
    tracer.write_chrome_json(options.trace_out);
    report.line("trace written to " + options.trace_out +
                " (Chrome trace-event JSON; open in Perfetto)");
  }
}

}  // namespace perfbench
