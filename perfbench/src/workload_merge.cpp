// merge_stream: back-to-back streaming ChipAlign merges of two seeded
// sharded checkpoints, each into a fresh output directory.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>

#include "host.hpp"
#include "inputs.hpp"
#include "io/safetensors.hpp"
#include "merge/registry.hpp"
#include "model/checkpoint.hpp"
#include "nn/transformer.hpp"
#include "stream/shard_layout.hpp"
#include "stream/streaming_merge.hpp"
#include "stream/tensor_source.hpp"
#include "trace.hpp"
#include "util/hash.hpp"
#include "util/mem_probe.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace chipalign;
namespace fs = std::filesystem;

namespace {

/// A hash of every byte of every shard file (index and journal excluded) of
/// a merged checkpoint, keyed by file name: XXH64 over the XXH64s of its
/// 8 MiB chunks. Xxh64Stream buffers its whole input, so hashing 64 MB
/// shards through it would raise the peak RSS this workload reports.
std::map<std::string, std::uint64_t> shard_hashes(const std::string& dir) {
  std::map<std::string, std::uint64_t> hashes;
  const ShardIndex index = ShardIndex::load(dir + "/" + kShardIndexFileName);
  std::vector<char> buffer(8u << 20);
  for (const std::string& file : index.shard_files()) {
    std::ifstream in(dir + "/" + file, std::ios::binary);
    CA_CHECK(in, "cannot read merged shard " << file);
    Xxh64Stream chunks;
    while (in) {
      in.read(buffer.data(), static_cast<std::streamsize>(buffer.size()));
      chunks.update_u64(
          xxh64(buffer.data(), static_cast<std::size_t>(in.gcount())));
    }
    hashes[file] = chunks.digest();
  }
  return hashes;
}

/// XXH64 (hex) of every tensor's stored bytes as read back from a merged
/// checkpoint.
std::map<std::string, std::string> tensor_hashes(const std::string& dir) {
  const ShardedTensorSource merged = ShardedTensorSource::open(dir);
  std::map<std::string, std::string> hashes;
  for (const std::string& name : merged.names()) {
    const std::vector<std::uint8_t> bytes = merged.read_bytes(name);
    hashes[name] = hash_to_hex(xxh64(bytes.data(), bytes.size()));
  }
  return hashes;
}

}  // namespace

void run_merge_stream(const RunOptions& options, RunReport& report) {
  const std::string chip_dir = merge_chip_dir(options.input_dir);
  const std::string instruct_dir = merge_instruct_dir(options.input_dir);

  // Set-up: open both sources (index.json + safetensors headers). It takes
  // well under a millisecond, so after a few untimed opens it is repeated
  // many times for a steady median.
  ShardedTensorSource chip = ShardedTensorSource::open(chip_dir);
  ShardedTensorSource instruct = ShardedTensorSource::open(instruct_dir);
  std::vector<double> setup_s;
  std::vector<double> open_ms;
  for (int run = 0; run < 101; ++run) {
    const double start = now_ms();
    chip = ShardedTensorSource::open(chip_dir);
    const double mid = now_ms();
    instruct = ShardedTensorSource::open(instruct_dir);
    const double end = now_ms();
    setup_s.push_back((end - start) / 1e3);
    open_ms.push_back(mid - start);
    open_ms.push_back(end - mid);
  }
  report.set("setup_s", median(setup_s), "s");
  report.line(format("setup: %zu runs, median %.6f s", setup_s.size(),
                     median(setup_s)));
  if (options.setup_only) return;

  const std::unique_ptr<Merger> merger = create_merger("chipalign");
  const MergeOptions merge_options;         // lambda 0.6
  const StreamingMergeConfig stream_config;  // pipelined defaults
  fs::create_directories(options.work_dir);
  const std::string out = options.work_dir + "/merged";
  const std::string warmup_out = out + ".warmup";
  const auto merge_into = [&](const std::string& dir) {
    return merge_streaming(*merger, chip, instruct, nullptr, merge_options,
                           stream_config, dir);
  };

  // Warm-up: untimed merges keep every vCPU busy for ~2 s before timing
  // starts. The first one's shard files are the ones every later merge's
  // must equal, byte for byte.
  fs::remove_all(out);
  merge_into(out);
  for (int i = 1; i < 10; ++i) {
    fs::remove_all(warmup_out);
    merge_into(warmup_out);
  }
  fs::remove_all(warmup_out);
  const std::map<std::string, std::uint64_t> reference_shards =
      shard_hashes(out);
  const std::map<std::string, std::string> reference_tensors =
      tensor_hashes(out);

  // Merges per run: ~0.18 s each on a 4-vCPU host, at least 40 so the
  // latency tail is p75. Fixed by the arguments alone.
  const std::size_t count = std::max<std::size_t>(
      40, static_cast<std::size_t>(options.seconds * 5.5 + 0.5));
  std::vector<double> latency;
  std::vector<StreamingMergeReport> merges;
  std::size_t matched = 0;
  const CpuTimes cpu_begin = read_cpu_times();
  for (std::size_t i = 0; i < count; ++i) {
    fs::remove_all(out);
    const double start = now_ms();
    bool ok = true;
    try {
      merges.push_back(merge_into(out));
    } catch (const std::exception& e) {
      ok = false;
      report.line(format("merge %zu failed: %s", i, e.what()));
    }
    latency.push_back(now_ms() - start);
    // Untimed: the shard files on disk equal the first merge's.
    const bool same = ok && shard_hashes(out) == reference_shards;
    matched += same ? 1 : 0;
    report.failures.record(same);
  }
  const CpuTimes cpu_end = read_cpu_times();
  report.set("peak_rss_mb", mb(static_cast<double>(peak_rss_bytes())), "MB");
  report_host(steal_fraction(cpu_begin, cpu_end), report);

  // Once per run: the streamed bytes equal the in-memory merge's.
  {
    const Checkpoint chip_mem = load_sharded_checkpoint(chip_dir);
    const Checkpoint instruct_mem = load_sharded_checkpoint(instruct_dir);
    const Checkpoint merged = merge_checkpoints(*merger, chip_mem, instruct_mem,
                                                nullptr, merge_options);
    std::map<std::string, std::string> expected;
    for (const auto& [name, tensor] : merged.tensors()) {
      const std::vector<std::uint8_t> bytes =
          encode_tensor_bytes(tensor, stream_config.out_dtype);
      expected[name] = hash_to_hex(xxh64(bytes.data(), bytes.size()));
    }
    const bool equal = expected == reference_tensors;
    report.failures.check(equal);
    report.line(format(
        "check: %zu of %zu merges wrote the first merge's shard bytes; "
        "streamed output %s merge_checkpoints (%zu tensors)",
        matched, count, equal ? "==" : "!=", expected.size()));
  }

  double total_ms = 0.0;
  for (double ms : latency) total_ms += ms;
  report.set("ops_per_s", static_cast<double>(merges.size()) / (total_ms / 1e3),
             "1/s");
  report.set("latency_p50_ms", median(latency), "ms");
  const double tail = tail_percentile(latency.size());
  if (tail > 0.0) report.set("latency_tail_ms", percentile(latency, tail), "ms");
  report.set("failed_frac", report.failures.fraction(), "fraction");
  {
    Xxh64Stream digest;
    for (const auto& [file, hash] : reference_shards) {
      digest.update(file);
      digest.update_u64(hash);
    }
    report.line(format("timed: %zu merges in %.3f s; latency tail is %s; "
                       "output digest %s",
                       merges.size(), total_ms / 1e3,
                       percentile_label(tail).c_str(),
                       hash_to_hex(digest.digest()).c_str()));
  }
  if (!options.trace) {
    fs::remove_all(out);
    return;
  }

  // Per-layer figures: the stream layer from this run's merges; the
  // other layers replayed on fixtures of the same seed.
  report_stream_layer(merges, open_ms, report);
  replay_merge_tensor(options.seed, report);
  {
    Rng rng(derive_seed(options.seed, "fixture-model"));
    const TransformerModel model(serving_config(), rng);
    replay_serving_layers(model, report);
    report.mark_fixture("nn.");
    report.mark_fixture("tensor.");
    replay_serve_fixture(model, options.seed, report);
  }
  replay_rag_fixture(options.seed, options.work_dir, report);

  // Traced run: the same merges again, with spans around each call.
  Tracer tracer;
  double traced_ms = 0.0;
  const double begin = now_ms();
  for (std::size_t i = 0; i < count; ++i) {
    const auto id = static_cast<std::int64_t>(i);
    {
      Span span(&tracer, "bench.clear_output", id);
      fs::remove_all(out);
    }
    const double start = now_ms();
    {
      Span span(&tracer, "stream.merge_streaming", id);
      merge_into(out);
    }
    const double end = now_ms();
    tracer.add_async("merge", id, start, end);
    traced_ms += end - start;
  }
  const double window_end = now_ms();
  fs::remove_all(out);
  report_trace(tracer, begin, window_end, traced_ms, total_ms, options,
               report);
}

}  // namespace perfbench
