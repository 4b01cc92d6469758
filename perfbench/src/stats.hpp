#pragma once
/// \file stats.hpp
/// \brief The benchmark's own statistics: percentiles under the ten-sample
/// rule, per-request TTFT/ITL extraction, and failure accounting.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile of `samples` (p in [0, 100]); the value at rank
/// ceil(p/100 * n), clamped to [1, n]. Returns 0 for an empty sample.
double percentile(std::vector<double> samples, double p);

/// Median (nearest-rank p50; the lower middle element for even counts).
double median(std::vector<double> samples);

/// Samples that lie strictly beyond the nearest-rank p-th percentile of n.
std::size_t samples_beyond(std::size_t n, double p);

/// True when at least 10 samples lie beyond the p-th percentile of n, the
/// rule under which a percentile is reported at all.
bool percentile_reportable(std::size_t n, double p);

/// The highest of p50/p75/p90/p95/p99/p99.9 with at least 10 samples beyond
/// it, or 0 when even the median has fewer (n < 20).
double tail_percentile(std::size_t n);

/// "p90", "p99.9", ... for report lines.
std::string percentile_label(double p);

/// Streamed timestamps of one request, in ms on one clock: when it was sent
/// (before retrieval, for RAG requests) and when each token arrived.
struct TokenTimes {
  double send_ms = 0.0;
  std::vector<double> token_ms;
};

/// What one request contributes to the latency metrics.
struct RequestTiming {
  bool has_tokens = false;
  double ttft_ms = 0.0;          ///< first token - send
  double latency_ms = 0.0;       ///< last token - send
  std::vector<double> itl_ms;    ///< gaps between consecutive tokens
};

/// TTFT, latency and inter-token gaps of one request. A request that
/// emitted no token has no TTFT or gaps (has_tokens false).
RequestTiming extract_timing(const TokenTimes& times);

/// Operations attempted vs. operations that did not complete correctly.
/// A failed status, a thrown submit/merge and a failed output check each
/// count once per operation.
class FailureCount {
 public:
  /// One attempted operation; a failure when !ok.
  void record(bool ok) {
    ++attempted_;
    check(ok);
  }
  /// A check on an already-attempted operation; counts its failure.
  void check(bool ok) {
    if (!ok) ++failed_;
  }

  std::int64_t attempted() const { return attempted_; }
  std::int64_t failed() const { return failed_; }
  /// failed / attempted, 0 when nothing was attempted.
  double fraction() const;

 private:
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
};

}  // namespace perfbench
