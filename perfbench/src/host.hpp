#pragma once
/// \file host.hpp
/// \brief Host diagnostics that explain run-to-run spread: CPU steal over
/// the timed window and the parallelism the host really delivers.

#include <cstddef>
#include <cstdint>

namespace perfbench {

/// Aggregate CPU time counters from /proc/stat (jiffies).
struct CpuTimes {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};

/// Reads the aggregate "cpu" line of /proc/stat; zeros when unavailable.
CpuTimes read_cpu_times();

/// Steal share of all CPU time between two samples (0 when no time passed).
double steal_fraction(const CpuTimes& begin, const CpuTimes& end);

/// Online hardware threads.
std::size_t nproc();

/// Busy-loop probe: the same fixed spin on 1 thread and on `threads`
/// threads at once; returns threads * t1 / tN, the speedup the host
/// actually delivers (nproc on an idle dedicated host).
double parallelism_probe(std::size_t threads);

}  // namespace perfbench
