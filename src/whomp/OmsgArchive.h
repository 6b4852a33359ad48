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
#include "sequitur/GrammarImage.h"
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

/// A parsed OMSG archive: the grammar images, their validated views
/// (sequitur/GrammarImage.h) and the aux table. Nothing here expands a
/// grammar into its stream; consumers that need the terminals stream
/// them through GrammarImage::Expander.
class OmsgArchive {
public:
  /// Empty when serializeProfile() can write \p Profiler's grammars;
  /// otherwise an error naming the first dimension whose grammar holds a
  /// terminal the grammar image cannot store (2^63 or more). Front ends
  /// that profile untrusted traces check this before serializing.
  static std::string imageRangeError(const WhompProfiler &Profiler);

  /// Writes the archive of \p Profiler straight from its live grammars;
  /// when \p Omc is given, the auxiliary lifetime table is included
  /// (base addresses — the run-dependent raw data — are deliberately
  /// NOT stored).
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
  /// truncation, or grammar images GrammarImage::parse rejects — and
  /// never reads out of bounds: archive files are untrusted input.
  /// \p MaxTerminals caps each grammar's declared expansion; a caller
  /// reading back an archive it just wrote may lift it.
  [[nodiscard]] static bool
  deserialize(const std::vector<uint8_t> &Bytes, OmsgArchive &Out,
              std::string &Err,
              uint64_t MaxTerminals =
                  sequitur::GrammarImage::kDefaultMaxExpandedTerminals);

  /// Concatenates the archives of consecutive trace segments into the
  /// archive of the unsplit run: each dimension's segment expansions
  /// stream in order through a fresh grammar (Sequitur is a
  /// deterministic streaming algorithm, so this reproduces the unsplit
  /// grammars byte for byte), and the auxiliary table is taken from the
  /// last segment, whose checkpointed OMC saw every object. Fails when
  /// the segments' dimension counts disagree.
  [[nodiscard]] static bool
  mergeSequential(const std::vector<const OmsgArchive *> &Segments,
                  OmsgArchive &Out, std::string &Err);

  /// Serialized per-dimension grammar images (what Figure 5 sizes), in
  /// (instr, group, object, offset) order.
  const std::vector<std::vector<uint8_t>> &grammarImages() const {
    return GrammarImages;
  }

  /// The validated view of each grammar image, in the same order.
  const std::vector<sequitur::GrammarImage> &grammars() const {
    return Grammars;
  }

  /// Auxiliary object rows (empty when built without an OMC).
  const std::vector<ObjectAux> &objects() const { return Aux; }

  /// Number of recorded accesses (the length every dimension expands to).
  uint64_t accessCount() const {
    return Grammars.empty() ? 0 : Grammars.front().expandedLength();
  }

  bool operator==(const OmsgArchive &O) const {
    return GrammarImages == O.GrammarImages && Aux == O.Aux;
  }

private:
  /// The one writer of the archive layout, behind serialize() and
  /// serializeProfile().
  static std::vector<uint8_t>
  writeFrame(const std::vector<std::vector<uint8_t>> &Images,
             const std::vector<ObjectAux> &Aux);

  std::vector<std::vector<uint8_t>> GrammarImages;
  std::vector<sequitur::GrammarImage> Grammars;
  std::vector<ObjectAux> Aux;
};

} // namespace whomp
} // namespace orp

#endif // ORP_WHOMP_OMSGARCHIVE_H
