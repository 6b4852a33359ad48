//===- baseline/ExactDependence.h - Lossless dependence profiler -*- C++ -*-=//
//
// Part of the ORP reproduction of "Exposing Memory Access Regularities
// Using Object-Relative Memory Profiling" (CGO 2004).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's lossless reference for Application 1: "a lossless
/// raw-address based profiler which records the dependence information
/// of all the memory operations in a program ... extremely slow and
/// produces huge profiles" (Section 4.2.1). For every executed load it
/// records a conflict with every store instruction that wrote the same
/// raw address at any earlier time (the paper's read-after-write
/// definition), yielding the exact MDF for every pair.
///
//===----------------------------------------------------------------------===//

#ifndef ORP_BASELINE_EXACTDEPENDENCE_H
#define ORP_BASELINE_EXACTDEPENDENCE_H

#include "analysis/Mdf.h"
#include "trace/Events.h"

#include <unordered_map>
#include <vector>

namespace orp {
namespace baseline {

/// Exact (ground-truth) RAW dependence profiler over raw addresses.
class ExactDependenceProfiler : public trace::TraceSink {
public:
  void onAccessBatch(std::span<const trace::AccessEvent> Events) override;
  void onAlloc(const trace::AllocEvent &) override {}
  void onFree(const trace::FreeEvent &) override {}

  /// Returns the exact MDF map (pairs with at least one conflict).
  analysis::MdfMap mdf() const;

  /// Returns the number of executions recorded for load \p Instr.
  uint64_t loadExecCount(trace::InstrId Instr) const;

  /// Returns the raw conflict count for (\p Store, \p Load).
  uint64_t conflictCount(trace::InstrId Store, trace::InstrId Load) const;

private:
  struct PairHash {
    size_t operator()(const analysis::InstrPair &P) const {
      return (static_cast<size_t>(P.first) << 32) ^ P.second;
    }
  };

  /// Distinct store instructions that have written each address so far.
  std::unordered_map<uint64_t, std::vector<trace::InstrId>> Writers;
  std::unordered_map<analysis::InstrPair, uint64_t, PairHash> Conflicts;
  std::unordered_map<trace::InstrId, uint64_t> LoadExecs;
};

} // namespace baseline
} // namespace orp

#endif // ORP_BASELINE_EXACTDEPENDENCE_H
