//===- baseline/RasgProfiler.h - Raw-address Sequitur baseline -*- C++ -*-===//
//
// Part of the ORP reproduction of "Exposing Memory Access Regularities
// Using Object-Relative Memory Profiling" (CGO 2004).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The conventional lossless baseline of Figure 5: "we also generate the
/// conventional RASG using the raw address stream (similar to the
/// grammars in [Rubin et al.])". The (instruction-id, raw address)
/// access stream is compressed into one Sequitur grammar per component;
/// WHOMP's OMSG carries the same instruction stream plus the three
/// object-relative location dimensions, so the two profiles are
/// information-equivalent lossless records of the same run.
///
//===----------------------------------------------------------------------===//

#ifndef ORP_BASELINE_RASGPROFILER_H
#define ORP_BASELINE_RASGPROFILER_H

#include "sequitur/Sequitur.h"
#include "trace/Events.h"

#include <cstddef>

namespace orp {
namespace baseline {

/// Raw-address Sequitur grammar profiler.
class RasgProfiler : public trace::TraceSink {
public:
  void onAccessBatch(std::span<const trace::AccessEvent> Events) override {
    for (const trace::AccessEvent &Event : Events) {
      AddrGrammar.append(Event.Addr);
      InstrGrammar.append(Event.Instr);
      ++Accesses;
    }
  }
  void onAlloc(const trace::AllocEvent &) override {}
  void onFree(const trace::FreeEvent &) override {}

  /// Returns the grammar over the raw address stream.
  const sequitur::SequiturGrammar &addressGrammar() const {
    return AddrGrammar;
  }

  /// Returns the grammar over the instruction-id stream.
  const sequitur::SequiturGrammar &instructionGrammar() const {
    return InstrGrammar;
  }

  /// Returns the total serialized RASG size in bytes.
  size_t serializedSizeBytes() const {
    return AddrGrammar.serializedSizeBytes() +
           InstrGrammar.serializedSizeBytes();
  }

  /// Returns the number of accesses compressed.
  uint64_t accessesSeen() const { return Accesses; }

private:
  sequitur::SequiturGrammar AddrGrammar;
  sequitur::SequiturGrammar InstrGrammar;
  uint64_t Accesses = 0;
};

} // namespace baseline
} // namespace orp

#endif // ORP_BASELINE_RASGPROFILER_H
