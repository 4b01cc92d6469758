#pragma once
/// \file inputs.hpp
/// \brief Seeded benchmark inputs. Everything a workload consumes — prompts,
/// output budgets, the retrieval corpus and its persisted index, and the
/// fabricated checkpoints — derives from the workload seed, so the same
/// seed always yields the same bytes.
///
/// In-memory inputs (prompts, questions, documents) are rebuilt by every
/// process; on-disk inputs are written once per seed by `perfbench gen` in
/// its own process, so generating them never raises the measured process's
/// peak RSS.

#include <cstdint>
#include <string>
#include <vector>

#include "data/fact_base.hpp"
#include "data/qa_bench.hpp"
#include "model/model_config.hpp"

namespace perfbench {

/// The serving-shaped model both serving workloads run: d_model 256, 4
/// layers, 8 query / 4 KV heads, d_ff 768, 2048-token context, the repo
/// tokenizer's vocabulary.
chipalign::ModelConfig serving_config();

/// One chat request: a distinct prompt and its greedy output budget.
struct ChatSpec {
  std::string prompt;  ///< encodes to `prompt_tokens` tokens with <bos>
  std::int64_t prompt_tokens = 0;
  std::int64_t max_new_tokens = 0;
};

/// `count` chat requests. Prompt lengths (24-160 tokens) and budgets
/// (16-96 tokens) are evenly spread over their ranges and shuffled by the
/// seed, so every seed asks for the same total work in a different order
/// and pairing; prompt text is seeded and distinct per request.
std::vector<ChatSpec> chat_requests(std::uint64_t seed, std::size_t count);

/// The shared ~1000-character assistant preamble every RAG prompt starts
/// with (the part the prefix cache serves).
const std::string& assistant_preamble();

/// The fact base behind the RAG questions and corpus.
chipalign::FactBase rag_facts(std::uint64_t seed);

/// `count` engineer questions (build_openroad_eval items) over the facts.
std::vector<chipalign::QaEvalItem> rag_questions(
    const chipalign::FactBase& facts, std::uint64_t seed, std::size_t count);

/// Synthetic documentation sentences of the bench_rag kind: templated
/// sentences over a shared vocabulary plus one rare per-document token.
std::vector<std::string> synth_docs(std::uint64_t seed, std::size_t count);

/// Documents in the persisted RAG index: the fact-base corpus, then
/// kRagSynthDocs synthetic sentences.
inline constexpr std::size_t kRagSynthDocs = 100'000;
inline constexpr std::size_t kRagAnnLists = 316;  ///< ~sqrt(corpus)

/// Merge inputs: two sharded fp32 checkpoints of kMergeTensors tensors of
/// kMergeRows x kMergeCols.
inline constexpr int kMergeTensors = 32;
inline constexpr std::int64_t kMergeRows = 1024;
inline constexpr std::int64_t kMergeCols = 1024;

/// Paths of the on-disk inputs under a per-seed input directory.
std::string serving_chip_path(const std::string& dir);
std::string serving_instruct_path(const std::string& dir);
std::string rag_index_path(const std::string& dir);
std::string merge_chip_dir(const std::string& dir);
std::string merge_instruct_dir(const std::string& dir);

/// Writes the on-disk inputs of `workload` into `dir` (created if needed).
void generate_inputs(const std::string& workload, std::uint64_t seed,
                     const std::string& dir);

/// Seeds of the individual inputs, split from the workload seed.
std::uint64_t derive_seed(std::uint64_t seed, const char* what);

}  // namespace perfbench
