#ifndef GTPL_BENCH_PERF_REFERENCE_H_
#define GTPL_BENCH_PERF_REFERENCE_H_

namespace gtpl::perf {

/// CPU seconds ReferenceCpuSeconds() took on the recording host (4-vCPU
/// Intel Xeon VM, RelWithDebInfo) in a quiet phase. Host timings are
/// rescaled to that speed.
inline constexpr double kReferenceSeconds = 0.065;

/// Runs a fixed calibration kernel that uses nothing from src/ and returns
/// the process CPU seconds it took. The kernel is a discrete-event loop
/// shaped like the simulator's: a binary heap of std::function callbacks
/// whose captures are past the inline buffer (one allocation per event),
/// each updating a hash map. On a shared host, the slow phases that stretch
/// a simulation run (other tenants contending for caches and the allocator's
/// memory) stretch this kernel by about as much, where an arithmetic loop
/// barely slows: over 10 minutes on the recording host the median time of
/// a simulation run ranged over 1.9x while its ratio to this kernel moved
/// by under 10%.
double ReferenceCpuSeconds();

}  // namespace gtpl::perf

#endif  // GTPL_BENCH_PERF_REFERENCE_H_
