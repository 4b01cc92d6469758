#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

namespace {

std::size_t nearest_rank(std::size_t n, double p) {
  const double exact = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  const auto rank = static_cast<std::size_t>(std::max(1.0, exact));
  return std::min(rank, n);
}

}  // namespace

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  const std::size_t rank = nearest_rank(samples.size(), p);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double median(std::vector<double> samples) {
  return percentile(std::move(samples), 50.0);
}

std::size_t samples_beyond(std::size_t n, double p) {
  return n == 0 ? 0 : n - nearest_rank(n, p);
}

bool percentile_reportable(std::size_t n, double p) {
  return samples_beyond(n, p) >= 10;
}

double tail_percentile(std::size_t n) {
  static const double kGrid[] = {99.9, 99.0, 95.0, 90.0, 75.0, 50.0};
  for (double p : kGrid) {
    if (percentile_reportable(n, p)) return p;
  }
  return 0.0;
}

std::string percentile_label(double p) {
  char text[16];
  std::snprintf(text, sizeof(text), "p%g", p);
  return text;
}

RequestTiming extract_timing(const TokenTimes& times) {
  RequestTiming timing;
  if (times.token_ms.empty()) return timing;
  timing.has_tokens = true;
  timing.ttft_ms = times.token_ms.front() - times.send_ms;
  timing.latency_ms = times.token_ms.back() - times.send_ms;
  for (std::size_t i = 1; i < times.token_ms.size(); ++i) {
    timing.itl_ms.push_back(times.token_ms[i] - times.token_ms[i - 1]);
  }
  return timing;
}

double FailureCount::fraction() const {
  return attempted_ == 0 ? 0.0
                         : static_cast<double>(failed_) /
                               static_cast<double>(attempted_);
}

}  // namespace perfbench
