//===- baseline/ConnorsProfiler.cpp - Window dependence profiler ---------===//

#include "baseline/ConnorsProfiler.h"

#include <algorithm>
#include <cassert>

using namespace orp;
using namespace orp::baseline;

ConnorsProfiler::ConnorsProfiler(size_t WindowSize) : Window(WindowSize) {
  assert(WindowSize > 0 && "window must be non-empty");
}

void ConnorsProfiler::onAccessBatch(
    std::span<const trace::AccessEvent> Events) {
  for (const trace::AccessEvent &Event : Events) {
    if (Event.IsStore) {
      History.emplace_back(Event.Addr, Event.Instr);
      InWindow[Event.Addr].push_back(Event.Instr);
      if (History.size() > Window) {
        auto [OldAddr, OldInstr] = History.front();
        History.pop_front();
        auto It = InWindow.find(OldAddr);
        assert(It != InWindow.end() && "window index out of sync");
        auto &Ids = It->second;
        Ids.erase(std::find(Ids.begin(), Ids.end(), OldInstr));
        if (Ids.empty())
          InWindow.erase(It);
      }
      continue;
    }

    ++LoadExecs[Event.Instr];
    auto It = InWindow.find(Event.Addr);
    if (It == InWindow.end())
      continue;
    // Count each distinct store instruction in the window once per load
    // execution.
    const auto &Ids = It->second;
    for (size_t I = 0; I != Ids.size(); ++I) {
      bool SeenBefore = false;
      for (size_t J = 0; J != I; ++J)
        if (Ids[J] == Ids[I]) {
          SeenBefore = true;
          break;
        }
      if (!SeenBefore)
        ++Conflicts[{Ids[I], Event.Instr}];
    }
  }
}

analysis::MdfMap ConnorsProfiler::mdf() const {
  analysis::MdfMap Result;
  for (const auto &[Pair, Count] : Conflicts) {
    uint64_t Execs = LoadExecs.at(Pair.second);
    Result[Pair] = static_cast<double>(Count) / static_cast<double>(Execs);
  }
  return Result;
}
