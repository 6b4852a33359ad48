//===- lmad/LmadCompressor.h - Incremental linear compression --*- C++ -*-===//
//
// Part of the ORP reproduction of "Exposing Memory Access Regularities
// Using Object-Relative Memory Profiling" (CGO 2004).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's linear compressor (Section 4.1): "reads each symbol in
/// the data stream and attempts to describe the stream using its linear
/// descriptors. If the new symbol does not fit into the current linear
/// pattern, it will start a new LMAD for this symbol." A stream is
/// allowed a bounded number of descriptors (the paper fixes 30 per
/// (instruction, group) pair); once exhausted "the compressor will then
/// discard the new symbols in the stream, and only record some overall
/// information such as max, min, and granularity", making the retained
/// descriptors a sample of the initial part of the stream.
///
//===----------------------------------------------------------------------===//

#ifndef ORP_LMAD_LMADCOMPRESSOR_H
#define ORP_LMAD_LMADCOMPRESSOR_H

#include "lmad/Lmad.h"

#include <cstddef>
#include <vector>

namespace orp {
namespace lmad {

/// Summary retained for the discarded portion of an overflowing stream.
struct OverflowSummary {
  uint64_t Dropped = 0; ///< Points not represented by any descriptor.
  Point Min = {0, 0, 0};
  Point Max = {0, 0, 0};
  /// Per-dimension gcd of deltas between consecutive discarded points
  /// (0 until two points have been discarded).
  Point Granularity = {0, 0, 0};
};

/// Incremental bounded-size LMAD compressor for one decomposed stream.
class LmadCompressor {
public:
  /// Default descriptor cap, the paper's chosen value.
  static constexpr unsigned DefaultMaxLmads = 30;

  /// Largest descriptor cap any input may request: profile images and
  /// OPEN frames naming a cap outside [1, MaxDescriptorCap] are rejected.
  static constexpr unsigned MaxDescriptorCap = 1u << 20;

  /// True when \p MaxLmads is a cap the compressor accepts.
  static constexpr bool isValidCap(uint64_t MaxLmads) {
    return MaxLmads >= 1 && MaxLmads <= MaxDescriptorCap;
  }

  /// Creates a compressor for \p Dims-dimensional points with at most
  /// \p MaxLmads descriptors.
  explicit LmadCompressor(unsigned Dims,
                          unsigned MaxLmads = DefaultMaxLmads);

  /// Feeds the next point of the stream.
  void addPoint(const Point &P);

  /// Convenience for 1-dimensional streams.
  void addValue(int64_t V) {
    assert(NumDims == 1 && "addValue on a multi-dimensional stream");
    addPoint(Point{V, 0, 0});
  }

  /// Returns the collected descriptors.
  const std::vector<Lmad> &lmads() const { return Descriptors; }

  /// Returns the number of points fed so far.
  uint64_t totalPoints() const { return Total; }

  /// Returns the number of points represented by descriptors.
  uint64_t capturedPoints() const { return Total - Overflow.Dropped; }

  /// Returns true when no point was discarded.
  bool fullyCaptured() const { return Overflow.Dropped == 0; }

  /// Returns the overflow summary (Dropped == 0 when none).
  const OverflowSummary &overflow() const { return Overflow; }

  /// Returns true once at least one point has been discarded.
  bool hasDiscards() const { return Overflow.Dropped != 0; }

  /// First discarded point. Meaningful only when hasDiscards(); together
  /// with lastDiscard() it lets the granularity chain be bridged across a
  /// segment boundary when two profiles of a split stream are merged.
  const Point &firstDiscard() const { return FirstDiscard; }

  /// Last discarded point. Meaningful only when hasDiscards().
  const Point &lastDiscard() const { return PrevDiscard; }

  /// Returns the descriptor cap.
  unsigned maxLmads() const { return MaxLmads; }

  /// Returns the stream dimensionality.
  unsigned dims() const { return NumDims; }

  /// Returns the serialized size of the profile entry for this stream:
  /// descriptor list plus (if any) the overflow summary, ULEB/SLEB128-
  /// encoded. These bytes are what Table 1's compression ratio counts.
  size_t serializedSizeBytes() const;

  /// Reconstructs the captured prefix of the stream by concatenating the
  /// descriptors in creation order; for tests of losslessness on fully
  /// captured streams. Discarding is sticky (once a point is dropped all
  /// later ones are), so the result is always an exact time-ordered
  /// prefix of the fed stream — the property segment merging relies on.
  std::vector<Point> reconstruct() const;

  /// Rebuilds a compressor mid-stream from a previously captured state,
  /// so a later segment's points can be fed through addPoint as if the
  /// stream had never been split. \p Descriptors, \p TotalPoints,
  /// \p Overflow and the discard endpoints must all come from one
  /// compressor with the same \p Dims and \p MaxLmads; \p First and
  /// \p Last are ignored when \p Overflow.Dropped == 0.
  static LmadCompressor resume(unsigned Dims, unsigned MaxLmads,
                               std::vector<Lmad> Descriptors,
                               uint64_t TotalPoints,
                               const OverflowSummary &Overflow,
                               const Point &First, const Point &Last);

  /// Folds the overflow summary of a continuation segment into this
  /// compressor, exactly as if the summarized points had been fed
  /// individually: Dropped adds, Min/Max widen, and the granularity
  /// chain is bridged across the boundary through \p TailFirst before
  /// adopting the tail's own gcd. \p TailLast becomes the new last
  /// discard. No-op when \p Tail.Dropped == 0.
  void foldOverflowTail(const OverflowSummary &Tail, const Point &TailFirst,
                        const Point &TailLast);

private:
  void startNewLmad(const Point &P);
  void discard(const Point &P);

  unsigned NumDims;
  unsigned MaxLmads;
  std::vector<Lmad> Descriptors;
  uint64_t Total = 0;
  OverflowSummary Overflow;
  bool HavePrevDiscard = false;
  Point FirstDiscard = {0, 0, 0};
  Point PrevDiscard = {0, 0, 0};
};

} // namespace lmad
} // namespace orp

#endif // ORP_LMAD_LMADCOMPRESSOR_H
