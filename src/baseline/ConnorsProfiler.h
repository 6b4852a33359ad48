//===- baseline/ConnorsProfiler.h - Window dependence profiler -*- C++ -*-===//
//
// Part of the ORP reproduction of "Exposing Memory Access Regularities
// Using Object-Relative Memory Profiling" (CGO 2004).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Re-implementation of the comparison profiler of Connors ("Memory
/// profiling for directing data speculative optimizations and
/// scheduling", UIUC MS thesis, 1997), as the paper itself re-implements
/// it for Figure 7: instruction-indexed, detecting a dependence only
/// when the load's address is found among the addresses of the last W
/// stores ("identifies dependences only in a small window of
/// instructions based on addresses recorded in a small history window").
/// It therefore never overestimates a frequency, but misses any
/// dependence whose store-to-load distance exceeds the window.
///
//===----------------------------------------------------------------------===//

#ifndef ORP_BASELINE_CONNORSPROFILER_H
#define ORP_BASELINE_CONNORSPROFILER_H

#include "analysis/Mdf.h"
#include "trace/Events.h"

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

namespace orp {
namespace baseline {

/// Window-based dependence profiler (Connors-style baseline).
class ConnorsProfiler : public trace::TraceSink {
public:
  /// Default window size; chosen (as in the paper) so the profiler's
  /// running cost is comparable to LEAP's.
  static constexpr size_t DefaultWindowSize = 4096;

  explicit ConnorsProfiler(size_t WindowSize = DefaultWindowSize);

  void onAccessBatch(std::span<const trace::AccessEvent> Events) override;
  void onAlloc(const trace::AllocEvent &) override {}
  void onFree(const trace::FreeEvent &) override {}

  /// Returns the estimated MDF map.
  analysis::MdfMap mdf() const;

  /// Returns the configured window size.
  size_t windowSize() const { return Window; }

private:
  struct PairHash {
    size_t operator()(const analysis::InstrPair &P) const {
      return (static_cast<size_t>(P.first) << 32) ^ P.second;
    }
  };

  size_t Window;
  /// FIFO of the last Window stores.
  std::deque<std::pair<uint64_t, trace::InstrId>> History;
  /// Store instructions currently in the window, per address.
  std::unordered_map<uint64_t, std::vector<trace::InstrId>> InWindow;
  std::unordered_map<analysis::InstrPair, uint64_t, PairHash> Conflicts;
  std::unordered_map<trace::InstrId, uint64_t> LoadExecs;
};

} // namespace baseline
} // namespace orp

#endif // ORP_BASELINE_CONNORSPROFILER_H
