#include "host.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "trace.hpp"

namespace perfbench {

CpuTimes read_cpu_times() {
  CpuTimes times;
  std::ifstream in("/proc/stat");
  std::string line;
  if (!in || !std::getline(in, line)) return times;
  std::istringstream fields(line);
  std::string label;
  fields >> label;
  if (label != "cpu") return times;
  // user nice system idle iowait irq softirq steal [guest guest_nice]; the
  // guest columns are already included in user/nice.
  std::uint64_t value = 0;
  for (int column = 0; column < 8 && fields >> value; ++column) {
    times.total += value;
    if (column == 7) times.steal = value;
  }
  return times;
}

double steal_fraction(const CpuTimes& begin, const CpuTimes& end) {
  if (end.total <= begin.total) return 0.0;
  return static_cast<double>(end.steal - begin.steal) /
         static_cast<double>(end.total - begin.total);
}

std::size_t nproc() {
  return std::max(1u, std::thread::hardware_concurrency());
}

namespace {

/// A dependent integer chain the optimizer cannot remove; ~20 ms.
std::uint64_t spin(std::uint64_t seed) {
  std::uint64_t x = seed | 1;
  for (int i = 0; i < 20'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

double timed_spin(std::size_t threads) {
  std::vector<std::uint64_t> sink(threads, 0);
  const double start = now_ms();
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&sink, t] { sink[t] = spin(t + 1); });
  }
  for (std::thread& worker : workers) worker.join();
  const double elapsed = now_ms() - start;
  volatile std::uint64_t keep = 0;
  for (std::uint64_t value : sink) keep = keep + value;
  return elapsed;
}

}  // namespace

double parallelism_probe(std::size_t threads) {
  threads = std::max<std::size_t>(1, threads);
  // Best of three damps a single preempted sample.
  double t1 = timed_spin(1);
  double tn = timed_spin(threads);
  for (int i = 0; i < 2; ++i) {
    t1 = std::min(t1, timed_spin(1));
    tn = std::min(tn, timed_spin(threads));
  }
  return tn > 0.0 ? static_cast<double>(threads) * t1 / tn : 0.0;
}

}  // namespace perfbench
