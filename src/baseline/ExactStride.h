//===- baseline/ExactStride.h - Lossless stride profiler -------*- C++ -*-===//
//
// Part of the ORP reproduction of "Exposing Memory Access Regularities
// Using Object-Relative Memory Profiling" (CGO 2004).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's lossless stride reference for Application 2: "we
/// re-implement the stride profiling in [Wu, PLDI 2002] with a setting
/// to make it lossless and track all the strides for a given instruction
/// (which is extremely slow because of the huge amount of stride
/// information to be tracked)". Per instruction it records the delta
/// between every pair of consecutive raw addresses; an instruction is
/// strongly strided when one stride accounts for >= 70% of its steps.
///
//===----------------------------------------------------------------------===//

#ifndef ORP_BASELINE_EXACTSTRIDE_H
#define ORP_BASELINE_EXACTSTRIDE_H

#include "analysis/Stride.h"
#include "trace/Events.h"

#include <cstdint>
#include <unordered_map>

namespace orp {
namespace baseline {

/// Exact (ground-truth) per-instruction stride profiler.
class ExactStrideProfiler : public trace::TraceSink {
public:
  void onAccessBatch(std::span<const trace::AccessEvent> Events) override;
  void onAlloc(const trace::AllocEvent &) override {}
  void onFree(const trace::FreeEvent &) override {}

  /// Returns the strongly-strided instructions at \p Threshold (share of
  /// consecutive-access steps covered by the dominant stride).
  analysis::StrideMap stronglyStrided(
      double Threshold = analysis::StrongStrideThreshold) const;

  /// Returns the full stride histogram of \p Instr (empty if unseen).
  const std::unordered_map<int64_t, uint64_t> &
  strides(trace::InstrId Instr) const;

private:
  struct PerInstr {
    bool HasLast = false;
    uint64_t LastAddr = 0;
    uint64_t Steps = 0;
    std::unordered_map<int64_t, uint64_t> StrideCounts;
  };
  std::unordered_map<trace::InstrId, PerInstr> ByInstr;
};

} // namespace baseline
} // namespace orp

#endif // ORP_BASELINE_EXACTSTRIDE_H
