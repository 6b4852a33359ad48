//===- baseline/ExactStride.cpp - Lossless stride profiler ---------------===//

#include "baseline/ExactStride.h"

using namespace orp;
using namespace orp::baseline;

void ExactStrideProfiler::onAccessBatch(
    std::span<const trace::AccessEvent> Events) {
  for (const trace::AccessEvent &Event : Events) {
    PerInstr &P = ByInstr[Event.Instr];
    if (P.HasLast) {
      int64_t Stride = static_cast<int64_t>(Event.Addr) -
                       static_cast<int64_t>(P.LastAddr);
      ++P.StrideCounts[Stride];
      ++P.Steps;
    }
    P.HasLast = true;
    P.LastAddr = Event.Addr;
  }
}

analysis::StrideMap
ExactStrideProfiler::stronglyStrided(double Threshold) const {
  analysis::StrideMap Result;
  for (const auto &[Instr, P] : ByInstr) {
    if (P.Steps == 0)
      continue;
    int64_t BestStride = 0;
    uint64_t BestCount = 0;
    for (const auto &[Stride, Count] : P.StrideCounts)
      if (Count > BestCount ||
          (Count == BestCount && Stride < BestStride)) {
        BestStride = Stride;
        BestCount = Count;
      }
    double Share =
        static_cast<double>(BestCount) / static_cast<double>(P.Steps);
    if (Share >= Threshold)
      Result[Instr] = analysis::StrideInfo{BestStride, Share};
  }
  return Result;
}

const std::unordered_map<int64_t, uint64_t> &
ExactStrideProfiler::strides(trace::InstrId Instr) const {
  static const std::unordered_map<int64_t, uint64_t> Empty;
  auto It = ByInstr.find(Instr);
  return It == ByInstr.end() ? Empty : It->second.StrideCounts;
}
