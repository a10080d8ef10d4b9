#include "common/phase_scope.h"

#include <cstring>
#include <string>

#include "common/profiler.h"

namespace corrmine {

#ifndef CORRMINE_METRICS_DISABLED

namespace {

/// Innermost scope on this thread that charges a PMU delta.
thread_local const PhaseScope* t_pmu_scope = nullptr;

}  // namespace

// Entry order is clock, trace, PMU and exit order the reverse, so the PMU
// window covers the phase body and none of the scope's own bookkeeping.
PhaseScope::PhaseScope(MetricsRegistry* registry, const char* name,
                       int64_t level, int64_t shard, int64_t value)
    : registry_(registry), name_(name) {
  Tracer& tracer = Tracer::Global();
  const bool traced = tracer.active();
  if (registry_ != nullptr || traced) start_ns_ = SteadyNowNanos();
  if (traced) {
    ring_ = tracer.ThreadRing();
    ring_->Append(TraceEvent{name, tracer.SinceStart(start_ns_),
                             TraceEventPhase::kBegin, level, shard, value});
  }
  Profiler& profiler = Profiler::Global();
  if (!profiler.pmu_active()) return;
  for (const PhaseScope* open = t_pmu_scope; open != nullptr;
       open = open->pmu_parent_) {
    if (std::strcmp(open->name_, name) == 0) return;  // Already charged.
  }
  group_ = profiler.ThreadGroup();
  if (group_ == nullptr) return;
  pmu_parent_ = t_pmu_scope;
  t_pmu_scope = this;
  entry_ = group_->Read();
}

PhaseScope::~PhaseScope() {
  if (group_ != nullptr) {
    Profiler::Global().RecordPhase(name_, group_->Read() - entry_);
    t_pmu_scope = pmu_parent_;
  }
  if (registry_ == nullptr && ring_ == nullptr) return;
  const uint64_t end_ns = SteadyNowNanos();
  if (ring_ != nullptr) {
    ring_->Append(TraceEvent{name_, Tracer::Global().SinceStart(end_ns),
                             TraceEventPhase::kEnd, -1, -1, -1});
  }
  if (registry_ != nullptr) {
    const std::string name(name_);
    registry_->GetHistogram(name + ".ns")->Observe(end_ns - start_ns_);
    registry_->GetCounter(name + ".calls")->Add();
  }
}

#endif  // CORRMINE_METRICS_DISABLED

}  // namespace corrmine
