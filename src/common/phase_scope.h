#ifndef CORRMINE_COMMON_PHASE_SCOPE_H_
#define CORRMINE_COMMON_PHASE_SCOPE_H_

#include <cstdint>

#include "common/metrics.h"
#include "common/pmu.h"
#include "common/trace.h"

namespace corrmine {

/// The one instrumentation primitive for a pipeline phase (DESIGN.md §6,
/// §8, §13). A scope feeds every sink that is switched on:
///
///  * the registry (when non-null): histogram "<name>.ns" and counter
///    "<name>.calls";
///  * the trace ring (when the Tracer is active): a begin/end pair carrying
///    the level / shard / value args;
///  * PMU attribution (when the Profiler's PMU collector is active): the
///    calling thread's counter delta, charged to `name`.
///
/// One clock read at each edge feeds both the duration and the trace
/// timestamps. `name` must have static storage duration.
///
/// Nesting rule: no call site opens a phase inside a scope of the same name,
/// since the thread's PMU delta would be charged twice. A pool thread that
/// helps while waiting can still run a sibling task of the phase it is
/// inside; such an inner scope records its histogram and trace span but no
/// PMU delta, which the outer scope already covers.
#ifdef CORRMINE_METRICS_DISABLED

/// No-op shell: sizeof == 1, no clocks, no syscalls (pinned by
/// profiler_off_test).
class PhaseScope {
 public:
  PhaseScope(MetricsRegistry* /*registry*/, const char* /*name*/,
             int64_t /*level*/ = -1, int64_t /*shard*/ = -1,
             int64_t /*value*/ = -1) {}
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;
};

#else  // instrumentation compiled in

class PhaseScope {
 public:
  PhaseScope(MetricsRegistry* registry, const char* name, int64_t level = -1,
             int64_t shard = -1, int64_t value = -1);
  ~PhaseScope();

  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  MetricsRegistry* registry_;
  const char* name_;
  uint64_t start_ns_ = 0;
  TraceRing* ring_ = nullptr;
  PmuGroup* group_ = nullptr;
  PmuCounts entry_;
  /// Enclosing scope on this thread that charges a PMU delta.
  const PhaseScope* pmu_parent_ = nullptr;
};

#endif  // CORRMINE_METRICS_DISABLED

}  // namespace corrmine

#endif  // CORRMINE_COMMON_PHASE_SCOPE_H_
