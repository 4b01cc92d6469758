#include "inputs.hpp"

#include <filesystem>
#include <map>
#include <utility>

#include "io/safetensors.hpp"
#include "model/checkpoint.hpp"
#include "nn/transformer.hpp"
#include "rag/retrieval.hpp"
#include "stream/shard_layout.hpp"
#include "stream/shard_writer.hpp"
#include "text/tokenizer.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace perfbench {

using chipalign::Rng;

std::uint64_t derive_seed(std::uint64_t seed, const char* what) {
  return chipalign::xxh64(std::string(what), seed);
}

chipalign::ModelConfig serving_config() {
  chipalign::ModelConfig config;
  config.name = "perfbench-serving";
  config.vocab_size = chipalign::tokenizer().vocab_size();
  config.d_model = 256;
  config.n_layers = 4;
  config.n_heads = 8;
  config.n_kv_heads = 4;
  config.d_ff = 768;
  config.max_seq_len = 2048;
  return config;
}

namespace {

const char* const kChatWords[] = {
    "route",  "the",     "clock",   "tree",   "after",  "placement", "check",
    "setup",  "slack",   "on",      "every",  "path",   "why",       "does",
    "hold",   "fail",    "at",      "corner", "buffer", "insert",    "net",
    "fanout", "macro",   "halo",    "power",  "grid",   "ir",        "drop",
    "scan",   "chain",   "reorder", "legal",  "detail", "global",    "cell",
    "width",  "spacing", "via",     "metal",  "layer"};

/// Evenly spaced integers over [lo, hi], shuffled by rng.
std::vector<std::int64_t> spread(std::int64_t lo, std::int64_t hi,
                                 std::size_t count, Rng& rng) {
  std::vector<std::int64_t> values(count, lo);
  for (std::size_t i = 0; i < count && count > 1; ++i) {
    values[i] = lo + (hi - lo) * static_cast<std::int64_t>(i) /
                         static_cast<std::int64_t>(count - 1);
  }
  rng.shuffle(values);
  return values;
}

}  // namespace

std::vector<ChatSpec> chat_requests(std::uint64_t seed, std::size_t count) {
  Rng rng(derive_seed(seed, "chat"));
  const std::vector<std::int64_t> lengths = spread(24, 160, count, rng);
  const std::vector<std::int64_t> budgets = spread(16, 96, count, rng);
  const std::size_t n_words = std::size(kChatWords);
  std::vector<ChatSpec> specs(count);
  for (std::size_t i = 0; i < count; ++i) {
    ChatSpec& spec = specs[i];
    // <bos> is one token, every character another.
    const auto chars = static_cast<std::size_t>(lengths[i] - 1);
    std::string text = "#" + std::to_string(i) + " " +
                       std::to_string(rng.next_u64() % 100000) + ":";
    while (text.size() < chars) {
      text += ' ';
      text += kChatWords[rng.uniform_index(n_words)];
    }
    text.resize(chars);
    spec.prompt = std::move(text);
    spec.prompt_tokens = lengths[i];
    spec.max_new_tokens = budgets[i];
  }
  return specs;
}

const std::string& assistant_preamble() {
  static const std::string preamble = [] {
    const char* const sentences[] = {
        "You are the chip design assistant of the physical design team.",
        "Answer questions about the OpenROAD flow, its commands, its GUI "
        "panels and its error messages.",
        "Use only the retrieved documentation below; if it does not contain "
        "the answer, say that the documentation does not cover it.",
        "Keep answers to one line, name the exact command or option, and "
        "follow every formatting instruction in the request header.",
        "Prefer the commands of the current release over deprecated ones, "
        "and never invent option names.",
        "Timing questions refer to the sign-off corner unless the question "
        "names another corner.",
        "Placement, clock tree synthesis and routing questions refer to the "
        "default flow scripts of the project.",
        "When a question asks for a value, give the value with its unit.",
        "When a question asks why a step failed, name the failing check "
        "first and the fix second.",
        "Treat the engineer as an expert: skip introductions, skip "
        "apologies and skip restating the question.",
        "Answer in plain text.",
    };
    std::string text;
    for (const char* sentence : sentences) {
      if (!text.empty()) text += ' ';
      text += sentence;
    }
    return text + "\n";
  }();
  return preamble;
}

chipalign::FactBase rag_facts(std::uint64_t seed) {
  return chipalign::FactBase(derive_seed(seed, "facts"));
}

std::vector<chipalign::QaEvalItem> rag_questions(
    const chipalign::FactBase& facts, std::uint64_t seed, std::size_t count) {
  return chipalign::build_openroad_eval(facts, derive_seed(seed, "questions"),
                                        static_cast<int>(count));
}

std::vector<std::string> synth_docs(std::uint64_t seed, std::size_t count) {
  static const char* kSubjects[] = {"command", "stage", "panel", "signal",
                                    "macro",   "net",   "clock", "port"};
  static const char* kVerbs[] = {"routes",  "checks",  "reports", "updates",
                                 "exports", "buffers", "places",  "syncs"};
  static const char* kObjects[] = {
      "the nets",       "the timing arcs", "the floorplan",   "the scan chains",
      "the power grid", "the netlist",     "the constraints", "the clock tree"};
  static const char* kModes[] = {"fast",   "safe",   "verbose", "batch",
                                 "strict", "legacy", "debug",   "quiet"};
  Rng rng(derive_seed(seed, "docs"));
  std::vector<std::string> docs;
  docs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    std::string doc = "the ";
    doc += kSubjects[rng.uniform_index(8)];
    doc += " op" + std::to_string(i) + " ";
    doc += kVerbs[rng.uniform_index(8)];
    doc += " ";
    doc += kObjects[rng.uniform_index(8)];
    doc += " in ";
    doc += kModes[rng.uniform_index(8)];
    doc += " mode";
    docs.push_back(std::move(doc));
  }
  return docs;
}

std::string serving_chip_path(const std::string& dir) {
  return dir + "/chip.safetensors";
}
std::string serving_instruct_path(const std::string& dir) {
  return dir + "/instruct.safetensors";
}
std::string rag_index_path(const std::string& dir) {
  return dir + "/rag_index.bin";
}
std::string merge_chip_dir(const std::string& dir) { return dir + "/chip"; }
std::string merge_instruct_dir(const std::string& dir) {
  return dir + "/instruct";
}

namespace {

void write_serving_checkpoints(const std::string& dir, std::uint64_t seed) {
  Rng chip_rng(derive_seed(seed, "chip-model"));
  Rng instruct_rng(derive_seed(seed, "instruct-model"));
  chipalign::TransformerModel(serving_config(), chip_rng)
      .to_checkpoint()
      .save(serving_chip_path(dir));
  chipalign::TransformerModel(serving_config(), instruct_rng)
      .to_checkpoint()
      .save(serving_instruct_path(dir));
}

void write_rag_index(const std::string& dir, std::uint64_t seed) {
  std::vector<std::string> corpus = rag_facts(seed).corpus_sentences();
  std::vector<std::string> docs = synth_docs(seed, kRagSynthDocs);
  corpus.insert(corpus.end(), std::make_move_iterator(docs.begin()),
                std::make_move_iterator(docs.end()));
  chipalign::RetrievalConfig config;
  config.ann_nlist = kRagAnnLists;
  chipalign::RetrievalPipeline(std::move(corpus), config)
      .save(rag_index_path(dir));
}

/// One sharded fp32 checkpoint, written a tensor at a time, with XXH64
/// checksums in its manifest.
void write_sharded_source(const std::string& dir, std::uint64_t seed) {
  std::vector<std::pair<std::string, chipalign::Shape>> entries;
  for (int i = 0; i < kMergeTensors; ++i) {
    char name[64];
    std::snprintf(name, sizeof(name), "layers.%03d.weight", i);
    entries.emplace_back(name, chipalign::Shape{kMergeRows, kMergeCols});
  }
  chipalign::ModelConfig config;
  config.name = "perfbench-merge";
  config.vocab_size = 1;
  config.d_model = kMergeRows;
  config.n_layers = kMergeTensors;
  config.n_heads = 1;
  config.n_kv_heads = 1;
  config.d_ff = kMergeCols;
  config.max_seq_len = 1;
  chipalign::ShardSetWriter writer(
      dir, chipalign::plan_shards(entries, chipalign::DType::kF32, 64ull << 20),
      chipalign::checkpoint_metadata(config));
  std::map<std::string, std::string> checksums;
  for (const auto& [name, shape] : entries) {
    Rng rng(seed ^ chipalign::xxh64(name));
    const chipalign::Tensor tensor = chipalign::Tensor::randn(shape, rng, 0.05F);
    const std::vector<std::uint8_t> bytes =
        chipalign::encode_tensor_bytes(tensor, chipalign::DType::kF32);
    checksums[name] =
        chipalign::hash_to_hex(chipalign::xxh64(bytes.data(), bytes.size()));
    writer.write_tensor(name, bytes);
  }
  writer.finish(checksums);
}

}  // namespace

void generate_inputs(const std::string& workload, std::uint64_t seed,
                     const std::string& dir) {
  std::filesystem::create_directories(dir);
  if (workload == "chat_burst") {
    write_serving_checkpoints(dir, seed);
  } else if (workload == "assistant_rag") {
    write_serving_checkpoints(dir, seed);
    write_rag_index(dir, seed);
  } else if (workload == "merge_stream") {
    write_sharded_source(merge_chip_dir(dir), derive_seed(seed, "merge-chip"));
    write_sharded_source(merge_instruct_dir(dir),
                         derive_seed(seed, "merge-instruct"));
  } else {
    CA_THROW("unknown workload '" << workload << "'");
  }
}

}  // namespace perfbench
