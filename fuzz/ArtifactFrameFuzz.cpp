//===- fuzz/ArtifactFrameFuzz.cpp - Shared framing on hostile bytes ------===//
//
// Property: every parser built on support/ArtifactFrame.h and
// support/ByteCursor.h must reject or cleanly parse ANY byte string —
// no crash, no sanitizer report, no unbounded allocation — and every
// rejection must carry a "<format>: ..." diagnostic. The first input
// byte selects the surface; the rest is the image:
//
//   0  OmsgStats::deserialize (.omst), raw and re-framed;
//   1  the ORCK checkpoint: ProfileSession::restoreCheckpoint (raw and
//      re-framed) and OmcCheckpoint::restore of a bare OMC section into
//      a fresh ObjectManager;
//   2  the orp-traced wire: FrameParser, then the payload decoders
//      decodeOpen, decodeSessionId, decodeEventsHeader,
//      decodeSnapshot and decodeCloseSummary;
//   3  a raw openFrame under every artifact magic, then a cursor walk
//      that checks the cursor's own contract.
//
// Accepted parses must be fixpoints of their encoders.
//
//===----------------------------------------------------------------------===//

#include "FuzzTarget.h"

#include "advisor/AdvisorReport.h"
#include "core/ProfilingSession.h"
#include "leap/LeapProfileData.h"
#include "omc/OmcCheckpoint.h"
#include "session/ProfileSession.h"
#include "session/Wire.h"
#include "traceio/TraceReader.h"
#include "whomp/OmsgArchive.h"
#include "whomp/OmsgStats.h"
#include "whomp/Whomp.h"
#include "workloads/Workload.h"

#include <string>

using namespace orp;

namespace {

enum Route : uint8_t { Stats, Checkpoint, Wire, Walk, NumRoutes };

/// Requires a rejection diagnostic that starts with "<Format>: ".
void requirePrefixed(const std::string &Err, const std::string &Format) {
  ORP_FUZZ_REQUIRE(Err.compare(0, Format.size() + 2, Format + ": ") == 0,
                   "rejection without a \"<format>: \" diagnostic");
}

void checkStats(const std::vector<uint8_t> &Bytes) {
  whomp::OmsgStats Out;
  std::string Err;
  if (!whomp::OmsgStats::deserialize(Bytes, Out, Err)) {
    requirePrefixed(Err, "OMSG stats");
    return;
  }
  ORP_FUZZ_REQUIRE(Out.serialize() == Bytes,
                   "accepted .omst is not its own canonical image");
}

void checkOrck(const std::vector<uint8_t> &Bytes) {
  // A default session against a trace with no blocks: exactly the
  // configuration and identity the seed checkpoints were taken with.
  session::ProfileSession Session("fuzz", session::SessionConfig());
  traceio::TraceReader Empty;
  uint64_t Next = ~0ULL;
  std::string Err;
  if (!Session.restoreCheckpoint(Bytes, Empty, Next, Err)) {
    requirePrefixed(Err, "checkpoint");
    return;
  }
  ORP_FUZZ_REQUIRE(Next == 0, "restored beyond the end of an empty trace");
  // Re-checkpointing canonicalizes (pool order, explicit live-forever
  // free times); the canonical image must then round-trip exactly.
  std::vector<uint8_t> Canonical = Session.checkpoint(Empty, Next);
  session::ProfileSession Again("fuzz", session::SessionConfig());
  ORP_FUZZ_REQUIRE(Again.restoreCheckpoint(Canonical, Empty, Next, Err),
                   "canonical ORCK failed to restore");
  ORP_FUZZ_REQUIRE(Again.checkpoint(Empty, Next) == Canonical,
                   "ORCK round trip differs");
}

void checkOmcSection(const uint8_t *Data, size_t Size) {
  omc::ObjectManager Omc;
  std::string Err;
  support::ByteCursor C(Data, Size, "omc checkpoint", Err);
  if (!omc::OmcCheckpoint::restore(C, Omc)) {
    requirePrefixed(Err, "omc checkpoint");
    return;
  }
  // Pool entries may arrive in any order; one canonical round trip
  // must then be stable.
  std::vector<uint8_t> Canonical;
  omc::OmcCheckpoint::serialize(Omc, Canonical);
  omc::ObjectManager Again;
  support::ByteCursor C2(Canonical.data(), Canonical.size(),
                         "omc checkpoint", Err);
  ORP_FUZZ_REQUIRE(omc::OmcCheckpoint::restore(C2, Again) && C2.expectEnd(),
                   "canonical OMC section failed to restore");
  std::vector<uint8_t> Twice;
  omc::OmcCheckpoint::serialize(Again, Twice);
  ORP_FUZZ_REQUIRE(Twice == Canonical, "OMC section round trip differs");
}

void checkWire(const uint8_t *Data, size_t Size) {
  // The streaming frame parser, fed in two pieces: every popped frame
  // lies inside the input, and a failure names the bad length.
  session::FrameParser Parser;
  session::Frame F;
  size_t Popped = 0;
  Parser.feed(Data, Size / 2);
  while (Parser.next(F))
    Popped += 5 + F.Payload.size();
  Parser.feed(Data + Size / 2, Size - Size / 2);
  while (Parser.next(F))
    Popped += 5 + F.Payload.size();
  ORP_FUZZ_REQUIRE(Popped <= Size, "frames popped beyond the input");
  if (Parser.failed())
    ORP_FUZZ_REQUIRE(Parser.error().rfind("bad frame length", 0) == 0,
                     "frame parser failed without naming the length");

  std::string Err;
  session::OpenRequest Open;
  if (session::decodeOpen(Data, Size, Open, Err)) {
    std::vector<uint8_t> Bytes;
    session::encodeOpen(Open, Bytes);
    session::OpenRequest Again;
    ORP_FUZZ_REQUIRE(
        session::decodeOpen(Bytes.data(), Bytes.size(), Again, Err),
        "re-encoded OPEN failed to decode");
    std::vector<uint8_t> Twice;
    session::encodeOpen(Again, Twice);
    ORP_FUZZ_REQUIRE(Twice == Bytes, "OPEN round trip differs");
  } else {
    requirePrefixed(Err, "OPEN frame");
  }

  Err.clear();
  uint64_t Id = 0;
  if (session::decodeSessionId(Data, Size, "CLOSE frame", Id, Err)) {
    std::vector<uint8_t> Bytes;
    session::encodeSessionId(Id, Bytes);
    uint64_t Again = 0;
    ORP_FUZZ_REQUIRE(session::decodeSessionId(Bytes.data(), Bytes.size(),
                                              "CLOSE frame", Again, Err) &&
                         Again == Id,
                     "re-encoded session id differs");
  } else {
    requirePrefixed(Err, "CLOSE frame");
  }

  Err.clear();
  session::EventsHeader Header;
  if (session::decodeEventsHeader(Data, Size, Header, Err))
    ORP_FUZZ_REQUIRE(Header.PayloadOffset <= Size,
                     "EVENTS payload offset past the frame");
  else
    requirePrefixed(Err, "EVENTS frame");

  Err.clear();
  session::SnapshotRequest Snap;
  if (!session::decodeSnapshot(Data, Size, Snap, Err))
    requirePrefixed(Err, "SNAPSHOT frame");

  Err.clear();
  session::CloseSummary Close;
  if (session::decodeCloseSummary(Data, Size, Close, Err)) {
    std::vector<uint8_t> Bytes;
    session::encodeCloseSummary(Close, Bytes);
    ORP_FUZZ_REQUIRE(Bytes == std::vector<uint8_t>(Data, Data + Size),
                     "accepted CLOSE reply is not its own encoding");
  } else {
    requirePrefixed(Err, "CLOSE reply");
  }
}

/// Opens \p Bytes under \p Magic / \p Version and walks the payload
/// with a mix of reads, checking the cursor's contract at every step.
void walkFrame(const std::vector<uint8_t> &Bytes, const char (&Magic)[4],
               uint8_t Version) {
  std::string Err;
  support::ByteCursor C =
      support::openFrame(Bytes, Magic, Version, "walk", Err);
  ORP_FUZZ_REQUIRE(C.failed() != Err.empty(),
                   "failure state and diagnostic disagree");
  for (unsigned Step = 0; !C.failed() && C.remaining() != 0; ++Step) {
    size_t Before = C.pos();
    uint64_t U = 0;
    int64_t S = 0;
    uint8_t B = 0;
    bool F = false;
    std::string Str;
    std::vector<uint8_t> Vec;
    bool Ok = false;
    switch (Step % 7) {
    case 0:
      Ok = C.readU("u", U) && C.checkCount("count", U, 3);
      break;
    case 1:
      Ok = C.readS("s", S);
      break;
    case 2:
      Ok = C.readByte("byte", B);
      break;
    case 3:
      Ok = C.readFlag("flag", F);
      break;
    case 4:
      Ok = C.readString("string", Str);
      break;
    case 5:
      Ok = C.readLenBytes("bytes", Vec);
      break;
    case 6: {
      uint32_t Word = 0;
      Ok = C.readLE("le32", Word);
      break;
    }
    }
    ORP_FUZZ_REQUIRE(Ok != C.failed(), "read result and state disagree");
    ORP_FUZZ_REQUIRE(Ok ? C.pos() > Before : C.remaining() == 0,
                     "cursor did not advance, or kept bytes after failing");
  }
  if (!C.failed()) {
    ORP_FUZZ_REQUIRE(C.expectEnd(), "a fully consumed walk has trailing bytes");
    return;
  }
  requirePrefixed(Err, "walk");
  // The first error is latched.
  std::string First = Err;
  uint64_t U = 0;
  ORP_FUZZ_REQUIRE(!C.readU("after", U) && !C.expectEnd() && Err == First,
                   "a failed cursor read on or replaced its diagnostic");
}

} // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t *Data, size_t Size) {
  if (Size == 0)
    return 0;
  const uint8_t *Body = Data + 1;
  size_t BodySize = Size - 1;
  std::vector<uint8_t> Raw(Body, Body + BodySize);
  switch (Data[0] % NumRoutes) {
  case Stats:
    checkStats(Raw);
    checkStats(fuzz::frameArtifact(whomp::OmsgStats::kMagic,
                                   whomp::OmsgStats::kFormatVersion, Body,
                                   BodySize));
    break;
  case Checkpoint:
    checkOrck(Raw);
    checkOrck(fuzz::frameArtifact(session::ProfileSession::kCheckpointMagic,
                                  session::ProfileSession::kCheckpointVersion,
                                  Body, BodySize));
    checkOmcSection(Body, BodySize);
    break;
  case Wire:
    checkWire(Body, BodySize);
    break;
  default:
    walkFrame(Raw, leap::LeapProfileData::kMagic,
              leap::LeapProfileData::kFormatVersion);
    walkFrame(Raw, whomp::OmsgArchive::kMagic,
              whomp::OmsgArchive::kFormatVersion);
    walkFrame(Raw, whomp::OmsgStats::kMagic,
              whomp::OmsgStats::kFormatVersion);
    walkFrame(Raw, advisor::AdvisorReport::kMagic,
              advisor::AdvisorReport::kFormatVersion);
    walkFrame(Raw, session::ProfileSession::kCheckpointMagic,
              session::ProfileSession::kCheckpointVersion);
    break;
  }
  return 0;
}

namespace {

std::vector<uint8_t> withRoute(Route R, const std::vector<uint8_t> &Body) {
  std::vector<uint8_t> Input;
  Input.reserve(1 + Body.size());
  Input.push_back(R);
  Input.insert(Input.end(), Body.begin(), Body.end());
  return Input;
}

/// A real .omst digest of a short tuple stream with repetition.
std::vector<uint8_t> seedStats() {
  whomp::WhompProfiler Whomp;
  uint64_t Time = 0;
  for (unsigned Round = 0; Round != 8; ++Round)
    for (unsigned I = 0; I != 16; ++I)
      Whomp.consume(core::OrTuple{1 + (I % 2), I % 3, I % 5, (I % 7) * 8,
                                  ++Time, false, 8});
  Whomp.finish();
  whomp::OmsgArchive Archive;
  std::string Err;
  ORP_FUZZ_REQUIRE(whomp::OmsgArchive::deserialize(
                       whomp::OmsgArchive::serializeProfile(Whomp), Archive,
                       Err),
                   "seed archive failed to parse");
  return whomp::OmsgStats::fromArchive(Archive).serialize();
}

/// The OMC section of a real run: list-traversal's objects, groups and
/// frees.
std::vector<uint8_t> seedOmcSection() {
  core::ProfilingSession Session(memsim::AllocPolicy::FirstFit, /*Seed=*/7);
  auto W = workloads::createWorkloadByName("list-traversal");
  workloads::WorkloadConfig Config;
  W->run(Session.memory(), Session.registry(), Config);
  Session.finish();
  std::vector<uint8_t> Section;
  omc::OmcCheckpoint::serialize(Session.omc(), Section);
  return Section;
}

} // namespace

std::vector<std::vector<uint8_t>> orpFuzzSeedInputs() {
  std::vector<std::vector<uint8_t>> Seeds;
  std::vector<uint8_t> Omst = seedStats();
  // A real ORCK image: a fresh session checkpointed against an empty
  // trace. Its OMC section is empty, so a second seed splices in the
  // section of a real run and reseals the frame.
  traceio::TraceReader Empty;
  std::vector<uint8_t> Orck =
      session::ProfileSession("seed", session::SessionConfig())
          .checkpoint(Empty, 0);
  std::vector<uint8_t> EmptySection;
  omc::OmcCheckpoint::serialize(omc::ObjectManager(), EmptySection);
  std::vector<uint8_t> Section = seedOmcSection();
  std::vector<uint8_t> FullOrck(Orck.begin(),
                                Orck.end() - EmptySection.size());
  FullOrck.insert(FullOrck.end(), Section.begin(), Section.end());
  support::sealFrame(FullOrck);

  Seeds.push_back(withRoute(Stats, Omst));
  Seeds.push_back(withRoute(Stats, whomp::OmsgStats().serialize()));
  Seeds.push_back(withRoute(Checkpoint, Orck));
  Seeds.push_back(withRoute(Checkpoint, FullOrck));
  Seeds.push_back(withRoute(Checkpoint, Section));

  session::OpenRequest Open;
  Open.Name = "seed";
  Open.Instrs.push_back({"load", trace::AccessKind::Load});
  Open.Sites.push_back({"site", "node_t"});
  std::vector<uint8_t> OpenBytes;
  session::encodeOpen(Open, OpenBytes);
  Seeds.push_back(withRoute(Wire, OpenBytes));
  session::CloseSummary Close;
  Close.Events = 42;
  Close.Error = "boom";
  Close.Omsg = {1, 2, 3};
  std::vector<uint8_t> CloseBytes;
  session::encodeCloseSummary(Close, CloseBytes);
  Seeds.push_back(withRoute(Wire, CloseBytes));
  std::vector<uint8_t> EventsBytes;
  session::encodeEventsHeader(1, 100, 2, 0xdeadbeef, EventsBytes);
  Seeds.push_back(withRoute(Wire, EventsBytes));

  Seeds.push_back(withRoute(Walk, Omst));
  Seeds.push_back(withRoute(Walk, FullOrck));
  Seeds.push_back(withRoute(Walk, {}));
  return Seeds;
}
