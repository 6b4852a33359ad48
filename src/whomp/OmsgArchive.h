//===- whomp/OmsgArchive.h - Detached OMSG profiles ------------*- C++ -*-===//
//
// Part of the ORP reproduction of "Exposing Memory Access Regularities
// Using Object-Relative Memory Profiling" (CGO 2004).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A WHOMP profile as a standalone artifact. Per Section 2.3, "the
/// profiler can also output the object lifetime and other auxiliary
/// information from the OMC unit. This run- and alloc-dependent
/// information is separated from the invariant object-relative tuples"
/// — so the archive has two parts: the invariant OMSG (four dimension
/// grammars) and an optional auxiliary table of object lifetimes.
///
//===----------------------------------------------------------------------===//

#ifndef ORP_WHOMP_OMSGARCHIVE_H
#define ORP_WHOMP_OMSGARCHIVE_H

#include "omc/ObjectManager.h"
#include "whomp/Whomp.h"

#include <cstdint>
#include <string>
#include <vector>

namespace orp {
namespace whomp {

/// One auxiliary object-lifetime row.
struct ObjectAux {
  omc::GroupId Group;
  omc::ObjectSerial Serial;
  uint64_t Size;
  uint64_t AllocTime;
  uint64_t FreeTime; ///< ObjectManager::kLiveForever when never freed.

  bool operator==(const ObjectAux &O) const {
    return Group == O.Group && Serial == O.Serial && Size == O.Size &&
           AllocTime == O.AllocTime && FreeTime == O.FreeTime;
  }
};

/// A parsed (or freshly built) OMSG archive.
class OmsgArchive {
public:
  /// Builds the invariant part from \p Profiler; when \p Omc is given,
  /// the auxiliary lifetime table is included (base addresses — the
  /// run-dependent raw data — are deliberately NOT stored). Expands
  /// every grammar for dimensionStreams(); a caller that only writes
  /// the artifact should use serializeProfile() instead.
  static OmsgArchive build(const WhompProfiler &Profiler,
                           const omc::ObjectManager *Omc = nullptr);

  /// Returns build(Profiler, Omc).serialize() byte for byte, written
  /// straight from the live grammars: no dimension stream is expanded.
  static std::vector<uint8_t>
  serializeProfile(const WhompProfiler &Profiler,
                   const omc::ObjectManager *Omc = nullptr);

  /// Archive magic ("OMSA") and current format version.
  static constexpr char kMagic[4] = {'O', 'M', 'S', 'A'};
  static constexpr uint8_t kFormatVersion = 1;

  /// Serializes the archive: the common artifact header
  /// (support/ArtifactFrame.h) followed by the ULEB128-framed grammar
  /// images and aux rows.
  std::vector<uint8_t> serialize() const;

  /// Parses a serialize()d image. Returns false (with a diagnostic in
  /// \p Err) on any malformed input — bad magic, version, checksum,
  /// truncation, or grammar images that do not expand cleanly — and
  /// never reads out of bounds: archive files are untrusted input.
  [[nodiscard]] static bool deserialize(const std::vector<uint8_t> &Bytes,
                                        OmsgArchive &Out, std::string &Err);

  /// Concatenates the archives of consecutive trace segments into the
  /// archive of the unsplit run: the expanded dimension streams join in
  /// order and recompress through fresh grammars (Sequitur is a
  /// deterministic streaming algorithm, so this reproduces the unsplit
  /// grammars byte for byte), and the auxiliary table is taken from the
  /// last segment, whose checkpointed OMC saw every object. Fails when
  /// the segments' stream counts disagree.
  [[nodiscard]] static bool
  mergeSequential(const std::vector<const OmsgArchive *> &Segments,
                  OmsgArchive &Out, std::string &Err);

  /// Expanded dimension streams, in (instr, group, object, offset)
  /// order — the lossless reconstruction of the tuple stream.
  const std::vector<std::vector<uint64_t>> &dimensionStreams() const {
    return Streams;
  }

  /// Serialized per-dimension grammar images (what Figure 5 sizes).
  const std::vector<std::vector<uint8_t>> &grammarImages() const {
    return GrammarImages;
  }

  /// Auxiliary object rows (empty when built without an OMC).
  const std::vector<ObjectAux> &objects() const { return Aux; }

  /// Number of recorded accesses (length of every dimension stream).
  uint64_t accessCount() const {
    return Streams.empty() ? 0 : Streams.front().size();
  }

  bool operator==(const OmsgArchive &O) const {
    return Streams == O.Streams && Aux == O.Aux;
  }

private:
  /// The one writer of the archive layout, behind serialize() and
  /// serializeProfile().
  static std::vector<uint8_t>
  writeFrame(const std::vector<std::vector<uint8_t>> &Images,
             const std::vector<ObjectAux> &Aux);

  /// Serialized grammar images, one per dimension; kept so that
  /// serialize() is cheap and deterministic.
  std::vector<std::vector<uint8_t>> GrammarImages;
  std::vector<std::vector<uint64_t>> Streams;
  std::vector<ObjectAux> Aux;
};

} // namespace whomp
} // namespace orp

#endif // ORP_WHOMP_OMSGARCHIVE_H
