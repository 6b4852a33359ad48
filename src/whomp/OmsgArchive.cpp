//===- whomp/OmsgArchive.cpp - Detached OMSG profiles --------------------===//

#include "whomp/OmsgArchive.h"

#include "support/ArtifactFrame.h"
#include "support/Error.h"
#include "support/VarInt.h"

#include <cassert>

using namespace orp;
using namespace orp::whomp;

namespace {

const core::Dimension Dims[] = {
    core::Dimension::Instruction, core::Dimension::Group,
    core::Dimension::Object, core::Dimension::Offset};

std::vector<std::vector<uint8_t>>
grammarImagesOf(const WhompProfiler &Profiler) {
  std::vector<std::vector<uint8_t>> Images;
  for (core::Dimension D : Dims)
    Images.push_back(Profiler.grammarFor(D).serialize());
  return Images;
}

std::vector<ObjectAux> auxRowsOf(const omc::ObjectManager *Omc) {
  std::vector<ObjectAux> Rows;
  if (!Omc)
    return Rows;
  Rows.reserve(Omc->records().size());
  for (const auto &Rec : Omc->records())
    Rows.push_back(ObjectAux{Rec.Group, Rec.Serial, Rec.Size, Rec.AllocTime,
                             Rec.FreeTime});
  return Rows;
}

} // namespace

OmsgArchive OmsgArchive::build(const WhompProfiler &Profiler,
                               const omc::ObjectManager *Omc) {
  OmsgArchive Archive;
  Archive.GrammarImages = grammarImagesOf(Profiler);
  for (core::Dimension D : Dims)
    Archive.Streams.push_back(Profiler.grammarFor(D).expandAll());
  Archive.Aux = auxRowsOf(Omc);
  return Archive;
}

std::vector<uint8_t>
OmsgArchive::serializeProfile(const WhompProfiler &Profiler,
                              const omc::ObjectManager *Omc) {
  return writeFrame(grammarImagesOf(Profiler), auxRowsOf(Omc));
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
                              OmsgArchive &Out, std::string &Err) {
  Out = OmsgArchive();
  support::ByteCursor C = support::openFrame(Bytes, kMagic, kFormatVersion,
                                             "OMSG archive", Err);
  uint64_t NumGrammars = 0;
  // Each grammar needs at least its length byte; larger counts cannot be
  // satisfied and would size the reserve below from hostile input.
  if (!C.readU("grammar count", NumGrammars) ||
      !C.checkCount("grammar count", NumGrammars, 1))
    return false;
  Out.GrammarImages.reserve(NumGrammars);
  Out.Streams.reserve(NumGrammars);
  for (uint64_t G = 0; G != NumGrammars; ++G) {
    std::vector<uint8_t> Image;
    if (!C.readLenBytes("grammar image", Image))
      return false;
    std::vector<uint64_t> Stream;
    if (!sequitur::SequiturGrammar::deserializeAndExpandChecked(
            Image.data(), Image.size(), Stream, Err))
      return false;
    Out.Streams.push_back(std::move(Stream));
    Out.GrammarImages.push_back(std::move(Image));
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
  size_t NumStreams = Segments.front()->Streams.size();
  for (const OmsgArchive *Seg : Segments)
    if (Seg->Streams.size() != NumStreams) {
      Err = "OMSG merge: segment dimension counts differ (" +
            std::to_string(NumStreams) + " vs " +
            std::to_string(Seg->Streams.size()) + ")";
      return false;
    }
  for (size_t D = 0; D != NumStreams; ++D) {
    // Sequitur is deterministic and streaming: feeding the concatenated
    // terminal sequence through a fresh grammar yields exactly the
    // grammar the unsplit run would have built.
    sequitur::SequiturGrammar Grammar;
    std::vector<uint64_t> Stream;
    for (const OmsgArchive *Seg : Segments)
      Stream.insert(Stream.end(), Seg->Streams[D].begin(),
                    Seg->Streams[D].end());
    Grammar.appendAll(Stream);
    Out.GrammarImages.push_back(Grammar.serialize());
    Out.Streams.push_back(std::move(Stream));
  }
  // A checkpointed segment's OMC carries every record from the start of
  // the trace, so the last segment's aux table is the full table.
  Out.Aux = Segments.back()->Aux;
  return true;
}
