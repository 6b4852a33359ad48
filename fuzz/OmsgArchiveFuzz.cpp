//===- fuzz/OmsgArchiveFuzz.cpp - OMSG artifacts on hostile bytes --------===//
//
// Property: sequitur::GrammarImage::parse, OmsgArchive::deserialize and
// OmsgStats::deserialize must reject or cleanly parse ANY byte string —
// no crash, no sanitizer report, no grammar-expansion blowup (the
// grammar image caps the declared expansion, rejects the shapes that
// would make expanding cost more than the declared length, and computes
// its rule statistics without expanding). An accepted grammar image
// must stream exactly its declared length and report consistent rule
// statistics; accepted archives must be serialization fixpoints, and
// the digest/merge path over them must hold. Inputs are exercised raw
// and re-framed under freshly checksummed OMSA/OMST headers so
// mutations reach the payload decoders, not just the CRC gate.
//
//===----------------------------------------------------------------------===//

#include "FuzzTarget.h"

#include "core/ObjectRelative.h"
#include "sequitur/GrammarImage.h"
#include "sequitur/Sequitur.h"
#include "whomp/OmsgArchive.h"
#include "whomp/OmsgStats.h"
#include "whomp/Whomp.h"

#include <algorithm>
#include <string>

using namespace orp;

static void checkGrammarImage(const uint8_t *Data, size_t Size) {
  sequitur::GrammarImage Image;
  std::string Err;
  if (!sequitur::GrammarImage::parse(Data, Size, Image, Err)) {
    ORP_FUZZ_REQUIRE(!Err.empty(), "rejected grammar without a diagnostic");
    return;
  }
  constexpr size_t PrefixCap = 4;
  std::vector<sequitur::RuleStats> Stats = Image.ruleStats(PrefixCap);
  ORP_FUZZ_REQUIRE(Stats.size() == Image.numRules() && !Stats.empty(),
                   "one statistics row per rule");
  ORP_FUZZ_REQUIRE(Stats[0].Occurrences == 1 &&
                       Stats[0].ExpandedLength == Image.expandedLength(),
                   "the start rule occurs once and spans the input");
  size_t BodySymbols = 0;
  for (const sequitur::RuleStats &RS : Stats) {
    BodySymbols += RS.BodyLength;
    ORP_FUZZ_REQUIRE(RS.Occurrences >= 1 &&
                         RS.ExpandedLength <=
                             Image.expandedLength() / RS.Occurrences,
                     "a rule's occurrences overrun the input");
    ORP_FUZZ_REQUIRE(RS.Prefix.size() ==
                         std::min<uint64_t>(PrefixCap, RS.ExpandedLength),
                     "prefix length disagrees with the expanded length");
  }
  ORP_FUZZ_REQUIRE(BodySymbols == Image.totalBodySymbols(),
                   "body lengths do not sum to the body symbols");
  uint64_t Streamed = 0, Terminal = 0;
  for (sequitur::GrammarImage::Expander E(Image); E.next(Terminal);) {
    if (Streamed < Stats[0].Prefix.size())
      ORP_FUZZ_REQUIRE(Terminal == Stats[0].Prefix[Streamed],
                       "the start rule's prefix disagrees with the stream");
    ++Streamed;
  }
  ORP_FUZZ_REQUIRE(Streamed == Image.expandedLength(),
                   "streamed expansion differs from the declared length");
}

static void checkArchiveImage(const std::vector<uint8_t> &Bytes) {
  whomp::OmsgArchive Out;
  std::string Err;
  if (!whomp::OmsgArchive::deserialize(Bytes, Out, Err)) {
    ORP_FUZZ_REQUIRE(!Err.empty(), "rejected archive without a diagnostic");
    return;
  }
  std::vector<uint8_t> Canonical = Out.serialize();
  whomp::OmsgArchive Again;
  ORP_FUZZ_REQUIRE(
      whomp::OmsgArchive::deserialize(Canonical, Again, Err),
      "canonical serialization of an accepted archive failed to parse");
  ORP_FUZZ_REQUIRE(Again == Out, "serialize/deserialize is not a fixpoint");
  // The statistics digest of any accepted archive must build and fold.
  whomp::OmsgStats Stats = whomp::OmsgStats::fromArchive(Out);
  whomp::OmsgStats Folded;
  ORP_FUZZ_REQUIRE(Folded.merge(Stats, Err), "digest fold failed");
  whomp::OmsgStats StatsBack;
  ORP_FUZZ_REQUIRE(
      whomp::OmsgStats::deserialize(Folded.serialize(), StatsBack, Err),
      "serialized digest failed to parse");
  ORP_FUZZ_REQUIRE(StatsBack == Folded, "digest round trip differs");
}

static void checkStatsImage(const std::vector<uint8_t> &Bytes) {
  whomp::OmsgStats Out;
  std::string Err;
  if (!whomp::OmsgStats::deserialize(Bytes, Out, Err)) {
    ORP_FUZZ_REQUIRE(!Err.empty(), "rejected digest without a diagnostic");
    return;
  }
  whomp::OmsgStats Again;
  ORP_FUZZ_REQUIRE(
      whomp::OmsgStats::deserialize(Out.serialize(), Again, Err),
      "canonical serialization of an accepted digest failed to parse");
  ORP_FUZZ_REQUIRE(Again == Out, "digest serialize/deserialize differs");
}

extern "C" int LLVMFuzzerTestOneInput(const uint8_t *Data, size_t Size) {
  std::vector<uint8_t> Raw(Data, Data + Size);
  checkGrammarImage(Data, Size);
  checkArchiveImage(Raw);
  checkStatsImage(Raw);
  checkArchiveImage(fuzz::frameArtifact(whomp::OmsgArchive::kMagic,
                                        whomp::OmsgArchive::kFormatVersion,
                                        Data, Size));
  checkStatsImage(fuzz::frameArtifact(whomp::OmsgStats::kMagic,
                                      whomp::OmsgStats::kFormatVersion, Data,
                                      Size));
  return 0;
}

/// A real archive from a short tuple stream with repetition (so the
/// grammars contain rules) plus an aux table boundary case.
static std::vector<uint8_t> seedArchive() {
  whomp::WhompProfiler Whomp;
  uint64_t Time = 0;
  for (unsigned Round = 0; Round != 8; ++Round)
    for (unsigned I = 0; I != 16; ++I)
      Whomp.consume(core::OrTuple{1 + (I % 2), I % 3, I % 5, (I % 7) * 8,
                                  ++Time, false, 8});
  Whomp.finish();
  return whomp::OmsgArchive::serializeProfile(Whomp);
}

/// A real grammar image with nested rules.
static std::vector<uint8_t> seedGrammar() {
  sequitur::SequiturGrammar Grammar;
  for (uint64_t I = 0; I != 256; ++I)
    Grammar.append((I * I) % 11 + (I % 3 == 0 ? 40 : 0));
  return Grammar.serialize();
}

std::vector<std::vector<uint8_t>> orpFuzzSeedInputs() {
  std::vector<std::vector<uint8_t>> Seeds;
  Seeds.push_back(seedArchive());
  Seeds.push_back(seedGrammar());
  // Degenerate seeds for both magics.
  Seeds.push_back({});
  Seeds.push_back({'O', 'M', 'S', 'A'});
  Seeds.push_back({'O', 'M', 'S', 'T'});
  Seeds.push_back({'O', 'M', 'S', 'A', 0xff, 0, 0, 0, 0});
  static const uint8_t Empty = 0;
  Seeds.push_back(fuzz::frameArtifact(whomp::OmsgArchive::kMagic,
                                      whomp::OmsgArchive::kFormatVersion,
                                      &Empty, 0));
  return Seeds;
}
