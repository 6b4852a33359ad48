//===- leap/LeapProfileData.h - Serializable LEAP profiles -----*- C++ -*-===//
//
// Part of the ORP reproduction of "Exposing Memory Access Regularities
// Using Object-Relative Memory Profiling" (CGO 2004).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A LEAP profile as a standalone artifact: the paper's workflow runs
/// the profiler once and then applies post-processors offline ("two
/// different post-processors use these LMADs..."). LeapProfileData is
/// the detached representation — the (instruction, group)-indexed LMAD
/// sets, overflow summaries and instruction counters — with a compact
/// LEB128 byte serialization whose size is exactly what
/// LeapProfiler::serializedSizeBytes() accounts.
///
/// Profiles are mergeable (DESIGN.md section 17):
///  - mergeSequential folds the profile of a later trace segment into
///    the profile of the earlier one. Because descriptor capture is an
///    exact stream prefix, the merge replays the later segment's
///    captured points through a resumed compressor and is byte-exact:
///    profiling a trace in checkpointed segments and merging reproduces
///    the unsplit profile bit for bit.
///  - mergeUnion folds profiles of independent runs. Descriptor sets
///    union and are re-bounded to the cap by a canonical total order;
///    the fold is associative and commutative, so N-way merges give the
///    same bytes in any order or grouping.
///
//===----------------------------------------------------------------------===//

#ifndef ORP_LEAP_LEAPPROFILEDATA_H
#define ORP_LEAP_LEAPPROFILEDATA_H

#include "core/Decomposition.h"
#include "leap/Leap.h"
#include "lmad/LmadCompressor.h"

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace orp {
namespace leap {

/// One detached (instruction, group) substream record.
struct SubstreamData {
  std::vector<lmad::Lmad> Lmads;
  lmad::OverflowSummary Overflow;
  uint64_t TotalPoints = 0;
  /// Discard endpoints; meaningful only when Overflow.Dropped != 0.
  /// They let mergeSequential bridge the granularity chain across the
  /// segment boundary.
  lmad::Point FirstDiscard = {0, 0, 0};
  lmad::Point LastDiscard = {0, 0, 0};

  bool operator==(const SubstreamData &O) const;
};

/// A LEAP profile detached from its profiler.
class LeapProfileData {
public:
  /// On-disk format: the common artifact header
  /// (support/ArtifactFrame.h) with this magic and version, then the
  /// LEB128 payload.
  static constexpr char kMagic[4] = {'L', 'E', 'A', 'P'};
  static constexpr uint8_t kFormatVersion = 2;

  /// Captures the state of \p Profiler.
  static LeapProfileData fromProfiler(const LeapProfiler &Profiler);

  /// Serializes to bytes (header plus ULEB/SLEB128 payload).
  std::vector<uint8_t> serialize() const;

  /// Parses a serialize()d image. Returns false (with a diagnostic in
  /// \p Err) on any malformed input — bad magic, version, checksum,
  /// truncation, counts inconsistent with the remaining bytes — and
  /// never reads out of bounds: profile files are untrusted input.
  [[nodiscard]] static bool deserialize(const std::vector<uint8_t> &Bytes,
                                        LeapProfileData &Out,
                                        std::string &Err);

  /// Folds \p Next, the profile of the trace segment that immediately
  /// follows this one, into this profile. Requires equal descriptor
  /// caps. Byte-exact — serialize() of the result equals the profile of
  /// the unsplit run — whenever each substream's later segment captured
  /// at least to the unsplit capture horizon (always true when the
  /// earlier segment saturated its cap or the later one fully
  /// captured); a later segment that overflowed earlier degrades that
  /// substream to a coarser but conservative overflow summary.
  [[nodiscard]] bool mergeSequential(const LeapProfileData &Next,
                                     std::string &Err);

  /// Folds \p Other, the profile of an independent run, into this
  /// profile. Requires equal descriptor caps. Associative and
  /// commutative: any merge order yields identical bytes.
  [[nodiscard]] bool mergeUnion(const LeapProfileData &Other,
                                std::string &Err);

  /// Returns the per-substream descriptor cap the profile was built
  /// with.
  unsigned maxLmads() const { return MaxLmads; }

  /// Substreams, unordered. serialize() emits them in sorted key order,
  /// so the byte image stays independent of insertion/hash order.
  const std::unordered_map<core::VerticalKey, SubstreamData,
                           core::VerticalKeyHash> &
  substreams() const {
    return Substreams;
  }

  /// Per-instruction execution summaries, unordered.
  const std::unordered_map<trace::InstrId, InstrSummary> &
  instructions() const {
    return Instrs;
  }

  bool operator==(const LeapProfileData &O) const;

private:
  unsigned MaxLmads = lmad::LmadCompressor::DefaultMaxLmads;
  std::unordered_map<core::VerticalKey, SubstreamData, core::VerticalKeyHash>
      Substreams;
  std::unordered_map<trace::InstrId, InstrSummary> Instrs;
};

} // namespace leap
} // namespace orp

#endif // ORP_LEAP_LEAPPROFILEDATA_H
