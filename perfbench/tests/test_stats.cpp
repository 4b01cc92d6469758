// Tests of the benchmark's own statistics and input generation.
//
//   python3 perfbench/run.py --selftest

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include "inputs.hpp"
#include "stats.hpp"
#include "text/tokenizer.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> values;
  for (int i = 1; i <= n; ++i) values.push_back(i);
  return values;
}

TEST(Percentile, NearestRank) {
  EXPECT_EQ(percentile(one_to(100), 90.0), 90.0);
  EXPECT_EQ(percentile(one_to(100), 99.0), 99.0);
  EXPECT_EQ(percentile(one_to(10), 50.0), 5.0);
  EXPECT_EQ(percentile(one_to(1), 99.0), 1.0);
  EXPECT_EQ(percentile({}, 50.0), 0.0);
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(percentile(one_to(100), 0.0), 1.0);
  EXPECT_EQ(percentile(one_to(100), 100.0), 100.0);
}

TEST(Percentile, ReportableOnlyWithTenSamplesBeyond) {
  EXPECT_EQ(samples_beyond(100, 90.0), 10u);
  EXPECT_TRUE(percentile_reportable(100, 90.0));
  EXPECT_FALSE(percentile_reportable(99, 90.0));
  EXPECT_FALSE(percentile_reportable(999, 99.0));
  EXPECT_TRUE(percentile_reportable(1000, 99.0));
  EXPECT_FALSE(percentile_reportable(0, 50.0));
}

TEST(Percentile, TailIsTheHighestReportable) {
  EXPECT_EQ(tail_percentile(0), 0.0);
  EXPECT_EQ(tail_percentile(19), 0.0);
  EXPECT_EQ(tail_percentile(20), 50.0);
  EXPECT_EQ(tail_percentile(39), 50.0);
  EXPECT_EQ(tail_percentile(40), 75.0);
  EXPECT_EQ(tail_percentile(99), 75.0);
  EXPECT_EQ(tail_percentile(100), 90.0);
  EXPECT_EQ(tail_percentile(200), 95.0);
  EXPECT_EQ(tail_percentile(1000), 99.0);
  EXPECT_EQ(tail_percentile(10000), 99.9);
  EXPECT_EQ(percentile_label(99.9), "p99.9");
  EXPECT_EQ(percentile_label(75.0), "p75");
}

TEST(Timing, TtftLatencyAndGapsFromTokenTimestamps) {
  TokenTimes times;
  times.send_ms = 100.0;
  times.token_ms = {150.0, 160.0, 175.0};
  const RequestTiming timing = extract_timing(times);
  ASSERT_TRUE(timing.has_tokens);
  EXPECT_DOUBLE_EQ(timing.ttft_ms, 50.0);
  EXPECT_DOUBLE_EQ(timing.latency_ms, 75.0);
  ASSERT_EQ(timing.itl_ms.size(), 2u);
  EXPECT_DOUBLE_EQ(timing.itl_ms[0], 10.0);
  EXPECT_DOUBLE_EQ(timing.itl_ms[1], 15.0);
}

TEST(Timing, OneTokenHasNoGapsAndNoTokensHasNoTiming) {
  TokenTimes one;
  one.send_ms = 5.0;
  one.token_ms = {9.0};
  const RequestTiming timing = extract_timing(one);
  EXPECT_TRUE(timing.has_tokens);
  EXPECT_DOUBLE_EQ(timing.ttft_ms, 4.0);
  EXPECT_DOUBLE_EQ(timing.latency_ms, 4.0);
  EXPECT_TRUE(timing.itl_ms.empty());
  EXPECT_FALSE(extract_timing(TokenTimes{}).has_tokens);
}

TEST(Failures, FractionOfAttempted) {
  FailureCount failures;
  EXPECT_EQ(failures.fraction(), 0.0);
  failures.record(true);
  failures.record(true);
  failures.record(false);  // e.g. a non-completed status
  failures.record(true);
  failures.check(false);   // e.g. an output that differs from generate()
  failures.check(true);
  EXPECT_EQ(failures.attempted(), 4);
  EXPECT_EQ(failures.failed(), 2);
  EXPECT_DOUBLE_EQ(failures.fraction(), 0.5);
}

TEST(Trace, BreakdownSelfTimeExcludesChildren) {
  Tracer tracer;
  const double begin = now_ms();
  {
    Span outer(&tracer, "outer", 1);
    { Span inner(&tracer, "inner", 1); }
    { Span inner(&tracer, "inner", 1); }
  }
  const double end = now_ms();
  const auto rows = tracer.breakdown(end - begin);
  ASSERT_EQ(rows.size(), 2u);
  const Tracer::Row& outer = rows[0].name == "outer" ? rows[0] : rows[1];
  const Tracer::Row& inner = rows[0].name == "outer" ? rows[1] : rows[0];
  EXPECT_EQ(outer.calls, 1);
  EXPECT_EQ(inner.calls, 2);
  EXPECT_NEAR(outer.self_ms, outer.total_ms - inner.total_ms, 1e-9);
  EXPECT_DOUBLE_EQ(inner.self_ms, inner.total_ms);
  EXPECT_NEAR(tracer.root_ms(begin, end), outer.total_ms, 1e-9);
  EXPECT_EQ(tracer.records()[1].parent, 0);

  // A null tracer is the untraced case: the span records nothing.
  { Span span(nullptr, "nothing"); }
  EXPECT_EQ(tracer.records().size(), 3u);
}

TEST(Inputs, SameSeedSameChatRequests) {
  const auto a = chat_requests(7, 50);
  const auto b = chat_requests(7, 50);
  const auto c = chat_requests(8, 50);
  ASSERT_EQ(a.size(), 50u);
  bool differs = false;
  std::set<std::string> prompts;
  std::vector<std::int64_t> lengths_a, lengths_c;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].prompt, b[i].prompt);
    EXPECT_EQ(a[i].max_new_tokens, b[i].max_new_tokens);
    differs = differs || a[i].prompt != c[i].prompt;
    prompts.insert(a[i].prompt);
    EXPECT_GE(a[i].prompt_tokens, 24);
    EXPECT_LE(a[i].prompt_tokens, 160);
    EXPECT_GE(a[i].max_new_tokens, 16);
    EXPECT_LE(a[i].max_new_tokens, 96);
    EXPECT_EQ(static_cast<std::int64_t>(
                  chipalign::tokenizer().encode(a[i].prompt, true).size()),
              a[i].prompt_tokens);
    lengths_a.push_back(a[i].prompt_tokens);
    lengths_c.push_back(c[i].prompt_tokens);
  }
  EXPECT_TRUE(differs);
  EXPECT_EQ(prompts.size(), a.size());  // distinct prompts
  // Every seed asks for the same lengths, in another order.
  std::sort(lengths_a.begin(), lengths_a.end());
  std::sort(lengths_c.begin(), lengths_c.end());
  EXPECT_EQ(lengths_a, lengths_c);
}

TEST(Inputs, SameSeedSameCorpusAndQuestions) {
  EXPECT_EQ(synth_docs(5, 200), synth_docs(5, 200));
  EXPECT_NE(synth_docs(5, 200), synth_docs(6, 200));
  const auto facts = rag_facts(5);
  const auto a = rag_questions(facts, 5, 12);
  const auto b = rag_questions(rag_facts(5), 5, 12);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].question, b[i].question);
  }
  EXPECT_EQ(facts.corpus_sentences(), rag_facts(5).corpus_sentences());
  EXPECT_EQ(derive_seed(5, "docs"), derive_seed(5, "docs"));
  EXPECT_NE(derive_seed(5, "docs"), derive_seed(6, "docs"));
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

TEST(Inputs, SameSeedSameCheckpointBytes) {
  const std::string root = testing::TempDir() + "perfbench_inputs";
  std::filesystem::remove_all(root);
  generate_inputs("chat_burst", 11, root + "/a");
  generate_inputs("chat_burst", 11, root + "/b");
  generate_inputs("chat_burst", 12, root + "/c");
  const std::string a = slurp(serving_chip_path(root + "/a"));
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, slurp(serving_chip_path(root + "/b")));
  EXPECT_EQ(slurp(serving_instruct_path(root + "/a")),
            slurp(serving_instruct_path(root + "/b")));
  EXPECT_NE(a, slurp(serving_chip_path(root + "/c")));
  EXPECT_NE(a, slurp(serving_instruct_path(root + "/a")));
  std::filesystem::remove_all(root);
}

}  // namespace
}  // namespace perfbench
