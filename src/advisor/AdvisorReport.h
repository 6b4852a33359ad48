//===- advisor/AdvisorReport.h - The .orpa advice artifact -----*- C++ -*-===//
//
// Part of the ORP reproduction of "Exposing Memory Access Regularities
// Using Object-Relative Memory Profiling" (CGO 2004).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serialized output of the advisor subsystem: one .orpa file
/// holding everything a runtime or compiler needs to *act* on an
/// object-relative profile (Section 3.2 of the paper — "the offset-level
/// grammar can be used for optimizations like field-reordering",
/// lifetime data for pool allocation, strongly-strided instructions for
/// prefetching). Three advice sections:
///
///  * Placement plan — object groups ranked hot-to-cold by access
///    density (LEAP access counts over OMC footprints). The serialized
///    order IS the rank: a tiering runtime fills its fast tier greedily
///    from the front (the OBASE model; see memsim::TieredAddressSpace).
///  * Layout advice — hot back-to-back same-object offset pairs from
///    the offset-dimension OMSG, i.e. field-reorder / structure-split
///    candidates.
///  * Prefetch advice — strongly-strided load instructions with the
///    distance a compiler pass would use.
///
/// On-disk format ("ORPA"): 4-byte magic, one version byte, a
/// little-endian u32 CRC-32 of the payload, then the LEB128 payload —
/// the same hardened framing as LEAP/OMSA artifacts. deserialize()
/// treats the bytes as untrusted input: checked varints, bounds caps,
/// canonical-order and cross-field validation, structured errors.
///
//===----------------------------------------------------------------------===//

#ifndef ORP_ADVISOR_ADVISORREPORT_H
#define ORP_ADVISOR_ADVISORREPORT_H

#include "omc/ObjectManager.h"
#include "trace/InstructionRegistry.h"

#include <cstdint>
#include <string>
#include <vector>

namespace orp {
namespace advisor {

/// The cache-line granularity layout advice reasons about.
constexpr uint64_t kCacheLineBytes = 64;

/// One ranked entry of the placement plan.
struct PlacementAdvice {
  omc::GroupId Group = 0;
  uint64_t AccessCount = 0;    ///< LEAP-attributed accesses to the group.
  uint64_t FootprintBytes = 0; ///< Total bytes ever allocated in it.
  uint64_t ObjectCount = 0;    ///< Objects ever allocated in it.
  uint64_t MeanLifetime = 0;   ///< Mean lifetime (in accesses) of freed
                               ///< objects; 0 when none were freed.
  bool Hot = false;            ///< Above-average access density.
  bool PoolCandidate = false;  ///< Many uniform short-lived objects.

  /// Accesses per footprint byte (the ranking key).
  double density() const {
    return FootprintBytes ? static_cast<double>(AccessCount) /
                                static_cast<double>(FootprintBytes)
                          : (AccessCount ? 1e30 : 0.0);
  }

  bool operator==(const PlacementAdvice &O) const {
    return Group == O.Group && AccessCount == O.AccessCount &&
           FootprintBytes == O.FootprintBytes &&
           ObjectCount == O.ObjectCount && MeanLifetime == O.MeanLifetime &&
           Hot == O.Hot && PoolCandidate == O.PoolCandidate;
  }
};

/// Returns true when \p A ranks strictly before \p B in the placement
/// plan: higher access density first (compared exactly by
/// cross-multiplication, no floating point), then more accesses, then
/// smaller footprint, then lower group id. A strict total order over
/// distinct groups, so the serialized rank order is canonical.
bool placementRankBefore(const PlacementAdvice &A, const PlacementAdvice &B);

/// One hot same-object offset pair (field-reorder candidate).
struct LayoutAdvice {
  omc::GroupId Group = 0;
  uint64_t OffA = 0; ///< Always < OffB.
  uint64_t OffB = 0;
  uint64_t PairCount = 0; ///< Back-to-back transitions observed.

  /// True when both offsets already share a cache line.
  bool sameCacheLine() const {
    return OffA / kCacheLineBytes == OffB / kCacheLineBytes;
  }

  bool operator==(const LayoutAdvice &O) const {
    return Group == O.Group && OffA == O.OffA && OffB == O.OffB &&
           PairCount == O.PairCount;
  }
};

/// Canonical layout-advice order: hottest pair first, ties by
/// (group, offA, offB) ascending.
bool layoutRankBefore(const LayoutAdvice &A, const LayoutAdvice &B);

/// One strongly-strided load worth a software prefetch.
struct PrefetchAdvice {
  trace::InstrId Instr = 0;
  int64_t Stride = 0;
  uint32_t SharePermille = 0; ///< Dominant-stride share, in [1, 1000].
  uint32_t Distance = 0;      ///< Iterations ahead, in [1, 4096].

  bool operator==(const PrefetchAdvice &O) const {
    return Instr == O.Instr && Stride == O.Stride &&
           SharePermille == O.SharePermille && Distance == O.Distance;
  }
};

/// The advice artifact.
class AdvisorReport {
public:
  /// On-disk framing: the common artifact header
  /// (support/ArtifactFrame.h) with this magic and version, then the
  /// LEB128 payload.
  static constexpr char kMagic[4] = {'O', 'R', 'P', 'A'};
  static constexpr uint8_t kFormatVersion = 1;

  /// Placement plan in rank order (index 0 is the hottest group).
  std::vector<PlacementAdvice> Placement;
  /// Layout advice in canonical (hotness) order.
  std::vector<LayoutAdvice> Layout;
  /// Prefetch advice in increasing instruction order.
  std::vector<PrefetchAdvice> Prefetch;

  /// Number of Hot-flagged placement entries.
  size_t hotGroupCount() const;

  /// Number of PoolCandidate-flagged placement entries.
  size_t poolCandidateCount() const;

  /// Serializes to bytes (header plus ULEB/SLEB128 payload). The
  /// sections are emitted in their canonical orders, which serialize()
  /// re-establishes, so the image never depends on construction order.
  std::vector<uint8_t> serialize() const;

  /// Parses a serialize()d image. Returns false (with a diagnostic in
  /// \p Err) on any malformed input — bad magic, version, checksum,
  /// truncation, counts inconsistent with the remaining bytes,
  /// non-canonical ordering, duplicate keys, out-of-range fields — and
  /// never reads out of bounds: advice files are untrusted input.
  [[nodiscard]] static bool deserialize(const std::vector<uint8_t> &Bytes,
                                        AdvisorReport &Out,
                                        std::string &Err);

  bool operator==(const AdvisorReport &O) const {
    return Placement == O.Placement && Layout == O.Layout &&
           Prefetch == O.Prefetch;
  }
};

} // namespace advisor
} // namespace orp

#endif // ORP_ADVISOR_ADVISORREPORT_H
