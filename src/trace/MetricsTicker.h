//===- trace/MetricsTicker.h - Periodic snapshot emission ------*- C++ -*-===//
//
// Part of the ORP reproduction of "Exposing Memory Access Regularities
// Using Object-Relative Memory Profiling" (CGO 2004).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A pass-through TraceSink that takes a telemetry snapshot every N
/// events, driving the CLIs' --metrics-interval option. Event-count
/// cadence (instead of wall time) keeps the emission deterministic: the
/// same trace produces snapshots at the same stream positions on every
/// run, and no timer thread is needed. Snapshots are taken on the
/// pipeline-driving thread, exactly as the registry's snapshot
/// discipline requires.
///
//===----------------------------------------------------------------------===//

#ifndef ORP_TRACE_METRICSTICKER_H
#define ORP_TRACE_METRICSTICKER_H

#include "telemetry/Registry.h"
#include "trace/Events.h"

#include <functional>

namespace orp {
namespace trace {

/// Counts events flowing past and hands a fresh MetricsSnapshot to the
/// emit callback every \p IntervalEvents events. Attach as an
/// additional raw sink; it never modifies the stream.
class MetricsTicker : public TraceSink {
public:
  using Emit = std::function<void(const telemetry::MetricsSnapshot &)>;

  MetricsTicker(uint64_t IntervalEvents, Emit Fn)
      : Interval(IntervalEvents ? IntervalEvents : 1), NextAt(Interval),
        Fn(std::move(Fn)) {}

  void onAccessBatch(std::span<const AccessEvent> Events) override {
    tick(Events.size());
  }
  void onAlloc(const AllocEvent &) override { tick(1); }
  void onFree(const FreeEvent &) override { tick(1); }

  /// Number of events seen so far.
  uint64_t eventsSeen() const { return Events; }

private:
  void tick(uint64_t N) {
    Events += N;
    // A large batch may cross several boundaries; emit once per crossing
    // so the snapshot cadence stays stable regardless of batch size.
    while (Events >= NextAt) {
      NextAt += Interval;
      Fn(telemetry::Registry::global().snapshot());
    }
  }

  uint64_t Interval;
  uint64_t NextAt;
  uint64_t Events = 0;
  Emit Fn;
};

} // namespace trace
} // namespace orp

#endif // ORP_TRACE_METRICSTICKER_H
