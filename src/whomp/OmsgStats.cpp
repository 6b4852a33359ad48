//===- whomp/OmsgStats.cpp - Mergeable OMSG statistics -------------------===//

#include "whomp/OmsgStats.h"

#include "support/ArtifactFrame.h"
#include "support/VarInt.h"

using namespace orp;
using namespace orp::whomp;

OmsgStats OmsgStats::fromArchive(const OmsgArchive &Archive) {
  OmsgStats Stats;
  Stats.Runs = 1;
  Stats.AccessCount = Archive.accessCount();
  Stats.ObjectCount = Archive.objects().size();
  const auto &Grammars = Archive.grammars();
  for (size_t D = 0; D != Grammars.size(); ++D) {
    DimensionStats Dim;
    Dim.InputLength = Grammars[D].expandedLength();
    Dim.GrammarBytes = Archive.grammarImages()[D].size();
    Dim.RuleCount = Grammars[D].numRules();
    Dim.BodySymbols = Grammars[D].totalBodySymbols();
    for (const auto &Rule : Grammars[D].ruleStats(/*PrefixCap=*/0)) {
      unsigned Bucket = 0;
      for (uint64_t V = Rule.Occurrences; V > 1; V >>= 1)
        ++Bucket;
      if (Bucket >= DimensionStats::kSpectrumBuckets)
        Bucket = DimensionStats::kSpectrumBuckets - 1;
      ++Dim.HotRuleSpectrum[Bucket];
    }
    Stats.Dims.push_back(Dim);
  }
  return Stats;
}

bool OmsgStats::merge(const OmsgStats &Other, std::string &Err) {
  if (Dims.empty() && Runs == 0) {
    *this = Other;
    return true;
  }
  if (Dims.size() != Other.Dims.size()) {
    Err = "stats merge: dimension counts differ (" +
          std::to_string(Dims.size()) + " vs " +
          std::to_string(Other.Dims.size()) + ")";
    return false;
  }
  Runs += Other.Runs;
  AccessCount += Other.AccessCount;
  ObjectCount += Other.ObjectCount;
  for (size_t D = 0; D != Dims.size(); ++D) {
    Dims[D].InputLength += Other.Dims[D].InputLength;
    Dims[D].GrammarBytes += Other.Dims[D].GrammarBytes;
    Dims[D].RuleCount += Other.Dims[D].RuleCount;
    Dims[D].BodySymbols += Other.Dims[D].BodySymbols;
    for (unsigned B = 0; B != DimensionStats::kSpectrumBuckets; ++B)
      Dims[D].HotRuleSpectrum[B] += Other.Dims[D].HotRuleSpectrum[B];
  }
  return true;
}

std::vector<uint8_t> OmsgStats::serialize() const {
  std::vector<uint8_t> Out;
  support::beginFrame(kMagic, kFormatVersion, Out);
  encodeULEB128(Runs, Out);
  encodeULEB128(AccessCount, Out);
  encodeULEB128(ObjectCount, Out);
  encodeULEB128(Dims.size(), Out);
  for (const DimensionStats &Dim : Dims) {
    encodeULEB128(Dim.InputLength, Out);
    encodeULEB128(Dim.GrammarBytes, Out);
    encodeULEB128(Dim.RuleCount, Out);
    encodeULEB128(Dim.BodySymbols, Out);
    encodeULEB128(DimensionStats::kSpectrumBuckets, Out);
    for (uint64_t Count : Dim.HotRuleSpectrum)
      encodeULEB128(Count, Out);
  }
  support::sealFrame(Out);
  return Out;
}

bool OmsgStats::deserialize(const std::vector<uint8_t> &Bytes,
                            OmsgStats &Out, std::string &Err) {
  Out = OmsgStats();
  support::ByteCursor C = support::openFrame(Bytes, kMagic, kFormatVersion,
                                             "OMSG stats", Err);
  uint64_t NumDims = 0;
  // Each dimension block needs at least 5 + kSpectrumBuckets bytes.
  if (!C.readU("run count", Out.Runs) ||
      !C.readU("access count", Out.AccessCount) ||
      !C.readU("object count", Out.ObjectCount) ||
      !C.readU("dimension count", NumDims) ||
      !C.checkCount("dimension count", NumDims,
                    5 + DimensionStats::kSpectrumBuckets))
    return false;
  Out.Dims.reserve(NumDims);
  for (uint64_t D = 0; D != NumDims; ++D) {
    DimensionStats Dim;
    uint64_t Buckets = 0;
    if (!C.readU("input length", Dim.InputLength) ||
        !C.readU("grammar bytes", Dim.GrammarBytes) ||
        !C.readU("rule count", Dim.RuleCount) ||
        !C.readU("body symbols", Dim.BodySymbols) ||
        !C.readU("bucket count", Buckets))
      return false;
    if (Buckets != DimensionStats::kSpectrumBuckets)
      return C.fail("unexpected spectrum bucket count " +
                    std::to_string(Buckets));
    for (unsigned B = 0; B != DimensionStats::kSpectrumBuckets; ++B)
      if (!C.readU("spectrum bucket", Dim.HotRuleSpectrum[B]))
        return false;
    Out.Dims.push_back(Dim);
  }
  return C.expectEnd();
}
