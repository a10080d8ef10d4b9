#ifndef CORRMINE_COMMON_PMU_H_
#define CORRMINE_COMMON_PMU_H_

#include <array>
#include <cstdint>
#include <string>

#include "common/metrics.h"

namespace corrmine {

/// Hardware performance-counter access (DESIGN.md §13), the PMU half of the
/// profiling subsystem. A PmuGroup opens one perf_event_open group — cycles
/// (leader), instructions, LLC loads/misses, branch misses, and the
/// task-clock software counter — bound to the calling thread, and reads all
/// of them atomically with one PERF_FORMAT_GROUP read. PhaseScope
/// (common/phase_scope.h) reads a group at phase entry/exit and attributes the
/// delta to the phase.
///
/// Degradation contract: perf_event_open is routinely denied in containers
/// (EACCES under perf_event_paranoid, EPERM/ENOSYS under seccomp) and
/// hardware events are often absent in VMs (ENOENT). Availability is probed
/// once per process; when the probe fails every PmuGroup is invalid, every
/// Read() returns zeros with valid=false, and ProbePmu().reason says why —
/// callers work unperturbed and the stats-JSON "profile" section reports
/// `pmu.available: false` instead of erroring.

/// One atomic reading (or a delta of two) of the counter group. Counts are
/// scaled for multiplexing (value * time_enabled / time_running) when the
/// kernel had to rotate the group; `valid` is false when the group could
/// not be read at all.
struct PmuCounts {
  uint64_t cycles = 0;
  uint64_t instructions = 0;
  uint64_t llc_loads = 0;
  uint64_t llc_misses = 0;
  uint64_t branch_misses = 0;
  uint64_t task_clock_ns = 0;
  bool valid = false;

  /// Per-field saturating difference (counters are monotone per thread, so
  /// a negative delta only means the field was absent on one side).
  PmuCounts operator-(const PmuCounts& other) const;
  PmuCounts& operator+=(const PmuCounts& other);
};

/// Result of the one-time per-process availability probe. `reason` is empty
/// when available, otherwise a human-readable explanation (errno text plus
/// a hint for the common perf_event_paranoid case).
struct PmuProbe {
  bool available = false;
  std::string reason;
};

/// Probes perf_event_open once (first call) and caches the verdict. Safe to
/// call from any thread, never throws, never logs.
const PmuProbe& ProbePmu();

#ifdef CORRMINE_METRICS_DISABLED

/// No-op shell: zero state, zero syscalls, same call-site shape. The
/// metrics-off build must not even open file descriptors.
class PmuGroup {
 public:
  PmuGroup() {}
  bool valid() const { return false; }
  PmuCounts Read() const { return PmuCounts{}; }
};

#else  // PMU layer compiled in

/// One per-thread perf_event group. Construction opens the counters for the
/// calling thread (invalid when the probe failed — construction still never
/// errors); Read() must be called from the owning thread. Counters free-run
/// from construction, so callers measure windows as Read()-deltas.
class PmuGroup {
 public:
  static constexpr size_t kEvents = 6;

  PmuGroup();
  ~PmuGroup();
  PmuGroup(const PmuGroup&) = delete;
  PmuGroup& operator=(const PmuGroup&) = delete;

  /// True when the group leader (cycles) opened. Individual member events
  /// may still be absent (e.g. no LLC events on this CPU) — their fields
  /// read as 0.
  bool valid() const { return fds_[0] >= 0; }

  /// One group read: all opened counters sampled at the same instant.
  PmuCounts Read() const;

 private:
  std::array<int, kEvents> fds_;       // -1 = event not opened
  std::array<uint64_t, kEvents> ids_;  // PERF_FORMAT_ID per opened slot
};

#endif  // CORRMINE_METRICS_DISABLED

}  // namespace corrmine

#endif  // CORRMINE_COMMON_PMU_H_
