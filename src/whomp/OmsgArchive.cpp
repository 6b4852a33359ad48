//===- whomp/OmsgArchive.cpp - Detached OMSG profiles --------------------===//

#include "whomp/OmsgArchive.h"

#include "support/ArtifactFrame.h"
#include "support/VarInt.h"

using namespace orp;
using namespace orp::whomp;

std::string OmsgArchive::imageRangeError(const WhompProfiler &Profiler) {
  for (core::Dimension D :
       {core::Dimension::Instruction, core::Dimension::Group,
        core::Dimension::Object, core::Dimension::Offset})
    if (!Profiler.grammarFor(D).fitsImage())
      return std::string(core::dimensionName(D)) +
             " grammar: a terminal of 2^63 or more does not fit the "
             "grammar image";
  return std::string();
}

std::vector<uint8_t>
OmsgArchive::serializeProfile(const WhompProfiler &Profiler,
                              const omc::ObjectManager *Omc) {
  std::vector<std::vector<uint8_t>> Images;
  for (core::Dimension D :
       {core::Dimension::Instruction, core::Dimension::Group,
        core::Dimension::Object, core::Dimension::Offset})
    Images.push_back(Profiler.grammarFor(D).serialize());
  std::vector<ObjectAux> Rows;
  if (Omc) {
    Rows.reserve(Omc->records().size());
    for (const auto &Rec : Omc->records())
      Rows.push_back(ObjectAux{Rec.Group, Rec.Serial, Rec.Size,
                               Rec.AllocTime, Rec.FreeTime});
  }
  return writeFrame(Images, Rows);
}

std::vector<uint8_t> OmsgArchive::serialize() const {
  return writeFrame(GrammarImages, Aux);
}

std::vector<uint8_t>
OmsgArchive::writeFrame(const std::vector<std::vector<uint8_t>> &Images,
                        const std::vector<ObjectAux> &Aux) {
  std::vector<uint8_t> Out;
  support::beginFrame(kMagic, kFormatVersion, Out);
  encodeULEB128(Images.size(), Out);
  for (const auto &Image : Images)
    support::appendLenPrefixed(Image, Out);
  encodeULEB128(Aux.size(), Out);
  for (const ObjectAux &Row : Aux) {
    encodeULEB128(Row.Group, Out);
    encodeULEB128(Row.Serial, Out);
    encodeULEB128(Row.Size, Out);
    encodeULEB128(Row.AllocTime, Out);
    // Live-forever is common and huge; store a presence flag instead.
    bool Freed = Row.FreeTime != omc::ObjectManager::kLiveForever;
    Out.push_back(Freed ? 1 : 0);
    if (Freed)
      encodeULEB128(Row.FreeTime, Out);
  }
  support::sealFrame(Out);
  return Out;
}

bool OmsgArchive::deserialize(const std::vector<uint8_t> &Bytes,
                              OmsgArchive &Out, std::string &Err,
                              uint64_t MaxTerminals) {
  Out = OmsgArchive();
  support::ByteCursor C = support::openFrame(Bytes, kMagic, kFormatVersion,
                                             "OMSG archive", Err);
  uint64_t NumGrammars = 0;
  // Each grammar needs at least its length byte.
  if (!C.readU("grammar count", NumGrammars) ||
      !C.checkCount("grammar count", NumGrammars, 1))
    return false;
  for (uint64_t G = 0; G != NumGrammars; ++G) {
    Out.GrammarImages.emplace_back();
    Out.Grammars.emplace_back();
    if (!C.readLenBytes("grammar image", Out.GrammarImages.back()) ||
        !sequitur::GrammarImage::parse(Out.GrammarImages.back(),
                                       Out.Grammars.back(), Err,
                                       MaxTerminals))
      return false;
  }
  uint64_t NumAux = 0;
  // Each aux row is at least 5 payload bytes.
  if (!C.readU("object count", NumAux) ||
      !C.checkCount("object count", NumAux, 5))
    return false;
  Out.Aux.reserve(NumAux);
  for (uint64_t I = 0; I != NumAux; ++I) {
    ObjectAux Row;
    uint64_t Group = 0;
    bool Freed = false;
    if (!C.readU("object group", Group) ||
        !C.readU("object serial", Row.Serial) ||
        !C.readU("object size", Row.Size) ||
        !C.readU("object alloc time", Row.AllocTime) ||
        !C.readFlag("freed flag", Freed))
      return false;
    Row.Group = static_cast<omc::GroupId>(Group);
    Row.FreeTime = omc::ObjectManager::kLiveForever;
    if (Freed && !C.readU("object free time", Row.FreeTime))
      return false;
    Out.Aux.push_back(Row);
  }
  return C.expectEnd();
}

bool OmsgArchive::mergeSequential(
    const std::vector<const OmsgArchive *> &Segments, OmsgArchive &Out,
    std::string &Err) {
  Out = OmsgArchive();
  if (Segments.empty())
    return true;
  size_t NumDims = Segments.front()->Grammars.size();
  for (const OmsgArchive *Seg : Segments)
    if (Seg->Grammars.size() != NumDims) {
      Err = "OMSG merge: segment dimension counts differ (" +
            std::to_string(NumDims) + " vs " +
            std::to_string(Seg->Grammars.size()) + ")";
      return false;
    }
  Out.GrammarImages.resize(NumDims);
  Out.Grammars.resize(NumDims);
  for (size_t D = 0; D != NumDims; ++D) {
    // Sequitur is deterministic and streaming: feeding the segments'
    // terminals in order through a fresh grammar yields exactly the
    // grammar the unsplit run would have built.
    sequitur::SequiturGrammar Grammar;
    uint64_t Terminal = 0;
    for (const OmsgArchive *Seg : Segments)
      for (sequitur::GrammarImage::Expander E(Seg->Grammars[D]);
           E.next(Terminal);)
        Grammar.append(Terminal);
    Out.GrammarImages[D] = Grammar.serialize();
    // The merged run may outgrow the cap meant for untrusted images.
    if (!sequitur::GrammarImage::parse(Out.GrammarImages[D], Out.Grammars[D],
                                       Err, /*MaxTerminals=*/~uint64_t{0}))
      return false;
  }
  // A checkpointed segment's OMC carries every record from the start of
  // the trace, so the last segment's aux table is the full table.
  Out.Aux = Segments.back()->Aux;
  return true;
}
