//===- baseline/ExactDependence.cpp - Lossless dependence profiler -------===//

#include "baseline/ExactDependence.h"

#include <algorithm>

using namespace orp;
using namespace orp::baseline;

void ExactDependenceProfiler::onAccessBatch(
    std::span<const trace::AccessEvent> Events) {
  for (const trace::AccessEvent &Event : Events) {
    if (Event.IsStore) {
      std::vector<trace::InstrId> &Ws = Writers[Event.Addr];
      if (std::find(Ws.begin(), Ws.end(), Event.Instr) == Ws.end())
        Ws.push_back(Event.Instr);
      continue;
    }
    ++LoadExecs[Event.Instr];
    auto It = Writers.find(Event.Addr);
    if (It == Writers.end())
      continue;
    for (trace::InstrId Store : It->second)
      ++Conflicts[{Store, Event.Instr}];
  }
}

analysis::MdfMap ExactDependenceProfiler::mdf() const {
  analysis::MdfMap Result;
  for (const auto &[Pair, Count] : Conflicts) {
    uint64_t Execs = LoadExecs.at(Pair.second);
    Result[Pair] = static_cast<double>(Count) / static_cast<double>(Execs);
  }
  return Result;
}

uint64_t
ExactDependenceProfiler::loadExecCount(trace::InstrId Instr) const {
  auto It = LoadExecs.find(Instr);
  return It == LoadExecs.end() ? 0 : It->second;
}

uint64_t ExactDependenceProfiler::conflictCount(trace::InstrId Store,
                                                trace::InstrId Load) const {
  auto It = Conflicts.find({Store, Load});
  return It == Conflicts.end() ? 0 : It->second;
}
