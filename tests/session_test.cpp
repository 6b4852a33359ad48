//===- tests/session_test.cpp - Session engine tests ---------------------===//
//
// The contract under test: the session engine multiplexes N independent
// trace streams without letting them observe each other. Per-session
// profiles are byte-identical whether a trace is replayed serially by
// the CLI path, streamed alone through a SessionManager, or interleaved
// block-by-block with other sessions over 1, 2 or 8 scheduler threads —
// and a corrupt stream, a full ingest queue, or an evicted neighbor
// never perturbs anyone else's bytes.
//
//===----------------------------------------------------------------------===//

#include "core/ProfilingSession.h"
#include "lmad/LmadCompressor.h"
#include "session/Client.h"
#include "session/Daemon.h"
#include "session/ProfileSession.h"
#include "session/SessionManager.h"
#include "session/Wire.h"
#include "support/VarInt.h"
#include "support/Version.h"
#include "support/WorkerPool.h"
#include "telemetry/Registry.h"
#include "traceio/TraceReader.h"
#include "traceio/TraceWriter.h"
#include "whomp/OmsgArchive.h"
#include "workloads/Workload.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

// A raw connection pipelines requests the blocking Client serializes.
#include <sys/socket.h> // orp-lint: allow(raw-socket)
#include <sys/un.h>     // orp-lint: allow(raw-socket)
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

using namespace orp;
using session::SessionArtifacts;
using session::SessionId;
using session::SubmitStatus;
using support::ScopedRole;

namespace {

using test::tempPath;

/// The checked-in trace whose offset terminals reach 2^63 (one object of
/// 2^63 + 4096 bytes, four loads past its 2^63rd byte; see
/// tests/fixtures/README.md). The grammar image cannot store them.
const std::string kHugeOffsetTrace =
    std::string(ORP_FIXTURE_DIR) + "/huge_offset.orpt";
constexpr const char *kUnstorableOffset =
    "offset grammar: a terminal of 2^63 or more does not fit the grammar "
    "image";

/// Records \p WorkloadName (at \p Scale, with a small block size so the
/// trace has many independently-schedulable blocks) to \p Path.
void recordTrace(const std::string &WorkloadName, const std::string &Path,
                 uint64_t Scale = 1, size_t BlockBytes = 2048) {
  core::ProfilingSession Session(memsim::AllocPolicy::FirstFit, /*Seed=*/7);
  traceio::TraceWriter Writer(Path, Session.registry(),
                              memsim::AllocPolicy::FirstFit, /*Seed=*/7,
                              BlockBytes);
  ASSERT_TRUE(Writer.ok()) << Writer.error();
  Session.addRawSink(&Writer);
  auto W = workloads::createWorkloadByName(WorkloadName);
  ASSERT_TRUE(W);
  workloads::WorkloadConfig Config;
  Config.Scale = Scale;
  W->run(Session.memory(), Session.registry(), Config);
  Session.finish();
  ASSERT_TRUE(Writer.close()) << Writer.error();
}

/// The session configuration every path in these tests uses, derived
/// from the trace header the way the daemon's OPEN handler does.
session::SessionConfig configFor(const traceio::TraceReader &Reader) {
  session::SessionConfig Config;
  Config.Policy =
      static_cast<memsim::AllocPolicy>(Reader.info().AllocPolicy);
  Config.Seed = Reader.info().Seed;
  return Config;
}

/// The serial ground truth: one ProfileSession fed by a whole-trace
/// replay on this thread (the `orp-trace replay` path).
SessionArtifacts serialArtifacts(const std::string &TracePath) {
  traceio::TraceReader Reader;
  EXPECT_TRUE(Reader.open(TracePath)) << Reader.error();
  session::ProfileSession Session("serial", configFor(Reader));
  EXPECT_TRUE(Session.replayFrom(Reader)) << Session.error();
  return Session.finalize();
}

/// Opens \p TracePath as a manager session (registering the recorded
/// probe tables the way an OPEN frame would).
SessionId openFor(session::SessionManager &Mgr,
                  traceio::TraceReader &Reader, const std::string &Name)
    ORP_REQUIRES(session::SessionControlRole) {
  return Mgr.open(Name, configFor(Reader), Reader.instructions(),
                  Reader.allocSites());
}

/// Offers block \p Index of \p Reader once, without spinning.
SubmitStatus offerBlock(session::SessionManager &Mgr, SessionId Id,
                        traceio::TraceReader &Reader, size_t Index)
    ORP_REQUIRES(session::SessionControlRole) {
  traceio::TraceReader::RawBlock B = Reader.rawBlock(Index);
  return Mgr.submitBlock(Id, B.Payload, B.PayloadLen, B.EventCount, B.Crc,
                         Reader.info().Version);
}

/// Submits block \p Index of \p Reader, spinning out backpressure.
void submitBlock(session::SessionManager &Mgr, SessionId Id,
                 traceio::TraceReader &Reader, size_t Index)
    ORP_REQUIRES(session::SessionControlRole) {
  SubmitStatus St;
  while ((St = offerBlock(Mgr, Id, Reader, Index)) ==
         SubmitStatus::WouldBlock) {
  }
  ASSERT_EQ(St, SubmitStatus::Ok);
}

/// The stall episodes counted so far, process-wide.
uint64_t stallEpisodes() {
  return telemetry::Registry::global().snapshot().counter(
      "session.submit_backpressure");
}

/// Session \p Name's ingest-queue depth, through the manager's gauges.
/// Call on the control thread (the snapshot discipline).
int64_t ingestDepth(const std::string &Name) {
  return telemetry::Registry::global().snapshot().gauge("session." + Name +
                                                        ".ingest_depth");
}

void expectSameProfile(const SessionArtifacts &A, const SessionArtifacts &B) {
  EXPECT_FALSE(A.Failed) << A.Error;
  EXPECT_FALSE(B.Failed) << B.Error;
  EXPECT_EQ(A.Events, B.Events);
  EXPECT_EQ(A.Omsg, B.Omsg);
  EXPECT_EQ(A.Leap, B.Leap);
}

} // namespace

//===----------------------------------------------------------------------===//
// Lifecycle
//===----------------------------------------------------------------------===//

TEST(SessionManagerTest, OpenCloseLifecycle) {
  // The test's thread is the manager's control thread.
  ScopedRole Role(session::SessionControlRole);
  session::ManagerConfig Config;
  session::SessionManager Mgr(Config);
  EXPECT_EQ(Mgr.numLiveSessions(), 0u);

  SessionId A = Mgr.open("a", session::SessionConfig{}, {}, {});
  SessionId B = Mgr.open("b", session::SessionConfig{}, {}, {});
  EXPECT_NE(A, B);
  EXPECT_EQ(Mgr.numLiveSessions(), 2u);

  session::SessionStats Stats;
  ASSERT_TRUE(Mgr.stats(A, Stats));
  EXPECT_EQ(Stats.Name, "a");
  EXPECT_EQ(Stats.Events, 0u);
  EXPECT_FALSE(Stats.Failed);
  EXPECT_GT(Stats.MemEstimateBytes, 0u);

  SessionArtifacts ArtA = Mgr.close(A);
  EXPECT_EQ(ArtA.Name, "a");
  EXPECT_FALSE(ArtA.Failed);
  EXPECT_FALSE(ArtA.Omsg.empty()); // Empty profiles still serialize.
  EXPECT_EQ(Mgr.numLiveSessions(), 1u);
  EXPECT_FALSE(Mgr.stats(A, Stats));

  // Closing an unknown id reports, not crashes.
  SessionArtifacts Unknown = Mgr.close(A);
  EXPECT_TRUE(Unknown.Failed);
  EXPECT_NE(Unknown.Error.find("unknown session id"), std::string::npos);

  EXPECT_TRUE(Mgr.abort(B));
  EXPECT_FALSE(Mgr.abort(B));
  EXPECT_EQ(Mgr.numLiveSessions(), 0u);
}

TEST(SessionManagerTest, AnonymousSessionsGetGeneratedNames) {
  ScopedRole Role(session::SessionControlRole);
  session::SessionManager Mgr(session::ManagerConfig{});
  SessionId Id = Mgr.open("", session::SessionConfig{}, {}, {});
  session::SessionStats Stats;
  ASSERT_TRUE(Mgr.stats(Id, Stats));
  EXPECT_EQ(Stats.Name, "s" + std::to_string(Id));
  Mgr.abort(Id);
}

//===----------------------------------------------------------------------===//
// Determinism goldens: interleaving and scheduler width change nothing
//===----------------------------------------------------------------------===//

TEST(SessionManagerTest, InterleavedSessionsMatchSerialReplay) {
  ScopedRole Role(session::SessionControlRole);
  std::string PathA = tempPath("ilv_a.orpt");
  std::string PathB = tempPath("ilv_b.orpt");
  recordTrace("list-traversal", PathA, /*Scale=*/1);
  recordTrace("list-traversal", PathB, /*Scale=*/2);
  SessionArtifacts SerialA = serialArtifacts(PathA);
  SessionArtifacts SerialB = serialArtifacts(PathB);

  for (unsigned Threads : {1u, 2u, 8u}) {
    traceio::TraceReader ReaderA, ReaderB;
    ASSERT_TRUE(ReaderA.open(PathA)) << ReaderA.error();
    ASSERT_TRUE(ReaderB.open(PathB)) << ReaderB.error();
    ASSERT_GT(ReaderA.numEventBlocks(), 4u)
        << "trace too small to interleave meaningfully";

    session::ManagerConfig Config;
    Config.Threads = Threads;
    Config.IngestQueueCapacity = 4;
    session::SessionManager Mgr(Config);
    SessionId A = openFor(Mgr, ReaderA, "a");
    SessionId B = openFor(Mgr, ReaderB, "b");

    // Strict block-by-block interleave: worst case for any scheduler
    // that accidentally shares state across sessions.
    size_t NumA = ReaderA.numEventBlocks(), NumB = ReaderB.numEventBlocks();
    for (size_t I = 0; I != NumA || I != NumB; ++I) {
      if (I < NumA)
        submitBlock(Mgr, A, ReaderA, I);
      if (I < NumB)
        submitBlock(Mgr, B, ReaderB, I);
      if (I >= NumA && I >= NumB)
        break;
    }
    SessionArtifacts ArtA = Mgr.close(A);
    SessionArtifacts ArtB = Mgr.close(B);
    expectSameProfile(ArtA, SerialA);
    expectSameProfile(ArtB, SerialB);
  }
  std::remove(PathA.c_str());
  std::remove(PathB.c_str());
}

//===----------------------------------------------------------------------===//
// Backpressure
//===----------------------------------------------------------------------===//

TEST(SessionManagerTest, FullIngestQueueReportsWouldBlock) {
  ScopedRole Role(session::SessionControlRole);
  std::string Path = tempPath("bp.orpt");
  recordTrace("list-traversal", Path);
  SessionArtifacts Serial = serialArtifacts(Path);

  traceio::TraceReader Reader;
  ASSERT_TRUE(Reader.open(Path)) << Reader.error();
  ASSERT_GT(Reader.numEventBlocks(), 6u);

  session::ManagerConfig Config;
  Config.Threads = 1;
  Config.IngestQueueCapacity = 2;
  session::SessionManager Mgr(Config);
  SessionId Id = openFor(Mgr, Reader, "bp");
  uint64_t EpisodesBefore = stallEpisodes();

  // Park the (only) shard worker so nothing drains. Wait until it has
  // popped the gate item: a pop racing the fill below would drain the
  // queue to the watermark and clear the stall mid-test.
  support::SpscQueue<int> Gate(1);
  ASSERT_EQ(Mgr.submitGate(Id, &Gate), SubmitStatus::Ok);
  while (ingestDepth("bp") != 0) {
  }

  // With the worker parked, exactly capacity blocks fit; then WouldBlock.
  size_t Accepted = 0;
  while (Accepted < Reader.numEventBlocks()) {
    SubmitStatus St = offerBlock(Mgr, Id, Reader, Accepted);
    if (St == SubmitStatus::WouldBlock)
      break;
    ASSERT_EQ(St, SubmitStatus::Ok);
    ++Accepted;
  }
  EXPECT_EQ(Accepted, Config.IngestQueueCapacity);
  // Refused retries belong to the same episode: one stall, counted once.
  EXPECT_EQ(offerBlock(Mgr, Id, Reader, Accepted), SubmitStatus::WouldBlock);
  EXPECT_EQ(offerBlock(Mgr, Id, Reader, Accepted), SubmitStatus::WouldBlock);
  EXPECT_EQ(stallEpisodes() - EpisodesBefore, 1u);

  // Release the worker; the stalled stream finishes normally and the
  // profile is unaffected by ever having been backpressured.
  ASSERT_TRUE(Gate.push(1));
  for (size_t I = Accepted; I != Reader.numEventBlocks(); ++I)
    submitBlock(Mgr, Id, Reader, I);
  SessionArtifacts Art = Mgr.close(Id);
  expectSameProfile(Art, Serial);
  std::remove(Path.c_str());
}

TEST(SessionManagerTest, StallWakesOncePerEpisodeAfterTheDrain) {
  ScopedRole Role(session::SessionControlRole);
  std::string Path = tempPath("stall.orpt");
  recordTrace("list-traversal", Path, /*Scale=*/2);
  SessionArtifacts Serial = serialArtifacts(Path);

  traceio::TraceReader Reader;
  ASSERT_TRUE(Reader.open(Path)) << Reader.error();
  ASSERT_GT(Reader.numEventBlocks(), 8u);

  session::ManagerConfig Config;
  Config.Threads = 1;
  Config.IngestQueueCapacity = 4;
  std::atomic<unsigned> Wakes{0};
  session::SessionManager Mgr(Config, [&Wakes] { ++Wakes; });
  SessionId Id = openFor(Mgr, Reader, "stall");
  uint64_t EpisodesBefore = stallEpisodes();

  // Two gates: the shard parks on the first, the second holds a slot.
  support::SpscQueue<int> First(1), Second(1);
  ASSERT_EQ(Mgr.submitGate(Id, &First), SubmitStatus::Ok);
  ASSERT_EQ(Mgr.submitGate(Id, &Second), SubmitStatus::Ok);
  size_t Next = 0;
  SubmitStatus St;
  while ((St = offerBlock(Mgr, Id, Reader, Next)) == SubmitStatus::Ok)
    ++Next;
  ASSERT_EQ(St, SubmitStatus::WouldBlock);
  EXPECT_EQ(stallEpisodes() - EpisodesBefore, 1u);

  // The shard moves on to the second gate, freeing a slot. The queue
  // still holds more than one block, so the session stays refused.
  ASSERT_TRUE(First.push(1));
  while (ingestDepth("stall") >=
         static_cast<int64_t>(Config.IngestQueueCapacity)) {
  }
  EXPECT_EQ(offerBlock(Mgr, Id, Reader, Next), SubmitStatus::WouldBlock);
  EXPECT_EQ(Wakes.load(), 0u);
  EXPECT_EQ(stallEpisodes() - EpisodesBefore, 1u);

  // Draining to one queued block clears the stall and wakes once.
  ASSERT_TRUE(Second.push(1));
  while (Wakes.load() == 0) {
  }
  ASSERT_EQ(offerBlock(Mgr, Id, Reader, Next), SubmitStatus::Ok);
  ++Next;
  session::SessionStats Stats;
  do {
    ASSERT_TRUE(Mgr.stats(Id, Stats));
  } while (Stats.Pending != 0);
  EXPECT_EQ(Wakes.load(), 1u); // Pops outside a stall never wake.
  EXPECT_EQ(stallEpisodes() - EpisodesBefore, 1u);

  for (; Next != Reader.numEventBlocks(); ++Next)
    submitBlock(Mgr, Id, Reader, Next);
  expectSameProfile(Mgr.close(Id), Serial);
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Non-blocking close
//===----------------------------------------------------------------------===//

TEST(SessionManagerTest, TryCloseIsNotReadyUntilFinalizedAndWakesOnce) {
  ScopedRole Role(session::SessionControlRole);
  std::string Path = tempPath("tryclose.orpt");
  recordTrace("list-traversal", Path);
  SessionArtifacts Serial = serialArtifacts(Path);

  traceio::TraceReader Reader;
  ASSERT_TRUE(Reader.open(Path)) << Reader.error();

  session::ManagerConfig Config;
  Config.Threads = 1;
  // Room for the whole trace and the gate: no stall, so no stall wake.
  Config.IngestQueueCapacity = Reader.numEventBlocks() + 1;
  std::atomic<unsigned> Wakes{0};
  session::SessionManager Mgr(Config, [&Wakes] { ++Wakes; });
  SessionId Id = openFor(Mgr, Reader, "tryclose");
  for (size_t I = 0; I != Reader.numEventBlocks(); ++I)
    submitBlock(Mgr, Id, Reader, I);

  // The finalize queues behind a parked shard: not ready, repeatedly.
  support::SpscQueue<int> Gate(1);
  ASSERT_EQ(Mgr.submitGate(Id, &Gate), SubmitStatus::Ok);
  SessionArtifacts Art;
  EXPECT_FALSE(Mgr.tryClose(Id, Art));
  EXPECT_FALSE(Mgr.tryClose(Id, Art));
  EXPECT_EQ(Wakes.load(), 0u);
  EXPECT_EQ(Mgr.numLiveSessions(), 1u);

  // EVENTS after CLOSE are refused.
  EXPECT_EQ(offerBlock(Mgr, Id, Reader, 0), SubmitStatus::Closing);

  ASSERT_TRUE(Gate.push(1));
  while (Wakes.load() == 0) {
  }
  ASSERT_TRUE(Mgr.tryClose(Id, Art));
  expectSameProfile(Art, Serial);
  EXPECT_EQ(Wakes.load(), 1u);
  EXPECT_EQ(Mgr.numLiveSessions(), 0u);

  // Gone: the id is unknown now, to both close forms.
  ASSERT_TRUE(Mgr.tryClose(Id, Art));
  EXPECT_TRUE(Art.Failed);
  EXPECT_NE(Art.Error.find("unknown session id"), std::string::npos);
  EXPECT_EQ(offerBlock(Mgr, Id, Reader, 0), SubmitStatus::NotFound);
  std::remove(Path.c_str());
}

TEST(SessionManagerTest, AbortDuringTryCloseWaitsForTheSameFinalize) {
  ScopedRole Role(session::SessionControlRole);
  session::ManagerConfig Config;
  Config.Threads = 1;
  std::atomic<unsigned> Wakes{0};
  session::SessionManager Mgr(Config, [&Wakes] { ++Wakes; });
  SessionId Id = Mgr.open("aborted", session::SessionConfig{}, {}, {});
  support::SpscQueue<int> Gate(1);
  ASSERT_EQ(Mgr.submitGate(Id, &Gate), SubmitStatus::Ok);
  SessionArtifacts Art;
  EXPECT_FALSE(Mgr.tryClose(Id, Art));
  ASSERT_TRUE(Gate.push(1));
  // A disconnect mid-finalize: abort waits for the queued finalize
  // rather than queueing a second one.
  EXPECT_TRUE(Mgr.abort(Id));
  EXPECT_EQ(Mgr.numLiveSessions(), 0u);
}

//===----------------------------------------------------------------------===//
// Eviction under a memory budget
//===----------------------------------------------------------------------===//

TEST(SessionManagerTest, IdleLruSessionEvictedUnderBudget) {
  ScopedRole Role(session::SessionControlRole);
  std::string Path = tempPath("evict.orpt");
  recordTrace("list-traversal", Path);
  SessionArtifacts Serial = serialArtifacts(Path);

  traceio::TraceReader Reader;
  ASSERT_TRUE(Reader.open(Path)) << Reader.error();

  session::ManagerConfig Config;
  Config.Threads = 2;
  Config.MemoryBudgetBytes = 1; // Any two sessions exceed this.
  session::SessionManager Mgr(Config);

  std::vector<std::pair<SessionId, SessionArtifacts>> Evicted;
  Mgr.setEvictionHandler([&](SessionId Id, SessionArtifacts A) {
    Evicted.emplace_back(Id, std::move(A));
  });

  SessionId A = openFor(Mgr, Reader, "victim");
  for (size_t I = 0; I != Reader.numEventBlocks(); ++I)
    submitBlock(Mgr, A, Reader, I);
  // Wait until A is idle (eviction only takes idle victims).
  session::SessionStats Stats;
  do {
    ASSERT_TRUE(Mgr.stats(A, Stats));
  } while (Stats.Pending != 0);

  // Opening a second session busts the budget; idle LRU "victim" goes.
  SessionId B = Mgr.open("fresh", session::SessionConfig{}, {}, {});
  ASSERT_EQ(Evicted.size(), 1u);
  EXPECT_EQ(Evicted[0].first, A);
  EXPECT_EQ(Evicted[0].second.Name, "victim");
  expectSameProfile(Evicted[0].second, Serial); // Evict == clean close.
  EXPECT_EQ(Mgr.numLiveSessions(), 1u);
  EXPECT_FALSE(Mgr.stats(A, Stats));

  // The survivor is never evicted below two live sessions, no matter
  // how far over budget the manager sits.
  EXPECT_EQ(Mgr.enforceBudget(), 0u);
  EXPECT_TRUE(Mgr.stats(B, Stats));
  Mgr.abort(B);
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Corruption isolation
//===----------------------------------------------------------------------===//

TEST(SessionManagerTest, CorruptBlockFailsOnlyItsOwnSession) {
  ScopedRole Role(session::SessionControlRole);
  std::string Path = tempPath("corrupt.orpt");
  recordTrace("list-traversal", Path);
  SessionArtifacts Serial = serialArtifacts(Path);

  traceio::TraceReader Reader;
  ASSERT_TRUE(Reader.open(Path)) << Reader.error();

  session::ManagerConfig Config;
  Config.Threads = 2;
  session::SessionManager Mgr(Config);
  SessionId Bad = openFor(Mgr, Reader, "bad");
  SessionId Good = openFor(Mgr, Reader, "good");

  // Session "bad" gets block 0 with a flipped payload byte.
  traceio::TraceReader::RawBlock B0 = Reader.rawBlock(0);
  std::vector<uint8_t> Tampered(B0.Payload, B0.Payload + B0.PayloadLen);
  Tampered[Tampered.size() / 2] ^= 0x40;
  SubmitStatus St;
  while ((St = Mgr.submitBlock(Bad, Tampered.data(), Tampered.size(),
                               B0.EventCount, B0.Crc,
                               Reader.info().Version)) ==
         SubmitStatus::WouldBlock) {
  }
  ASSERT_EQ(St, SubmitStatus::Ok);

  // Session "good" replays the whole (intact) trace concurrently.
  for (size_t I = 0; I != Reader.numEventBlocks(); ++I)
    submitBlock(Mgr, Good, Reader, I);

  // "bad" latches its failure and rejects further blocks.
  session::SessionStats Stats;
  do {
    ASSERT_TRUE(Mgr.stats(Bad, Stats));
  } while (Stats.Pending != 0);
  EXPECT_TRUE(Stats.Failed);
  EXPECT_NE(Stats.Error.find("checksum mismatch"), std::string::npos)
      << Stats.Error;
  traceio::TraceReader::RawBlock B1 = Reader.rawBlock(1);
  EXPECT_EQ(Mgr.submitBlock(Bad, B1.Payload, B1.PayloadLen, B1.EventCount,
                            B1.Crc, Reader.info().Version),
            SubmitStatus::Failed);

  SessionArtifacts BadArt = Mgr.close(Bad);
  EXPECT_TRUE(BadArt.Failed);
  EXPECT_FALSE(BadArt.Error.empty());

  // The neighbor never notices.
  SessionArtifacts GoodArt = Mgr.close(Good);
  expectSameProfile(GoodArt, Serial);
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Finalize writes the OMSG archive straight from the grammars
//===----------------------------------------------------------------------===//

namespace {

/// Checks that \p Bytes is the archive of \p Whomp's grammar images
/// and \p Omc's object rows (none without an OMC), and that the parsed
/// archive writes the same bytes back.
void expectArchiveOf(const std::vector<uint8_t> &Bytes,
                     const whomp::WhompProfiler &Whomp,
                     const omc::ObjectManager *Omc) {
  whomp::OmsgArchive Archive;
  std::string Err;
  ASSERT_TRUE(whomp::OmsgArchive::deserialize(Bytes, Archive, Err)) << Err;
  const core::Dimension Dims[] = {
      core::Dimension::Instruction, core::Dimension::Group,
      core::Dimension::Object, core::Dimension::Offset};
  ASSERT_EQ(Archive.grammarImages().size(), 4u);
  for (size_t D = 0; D != 4; ++D)
    EXPECT_EQ(Archive.grammarImages()[D], Whomp.grammarFor(Dims[D]).serialize())
        << "dimension " << D;
  EXPECT_EQ(Archive.accessCount(), Whomp.tuplesSeen());
  size_t Rows = Omc ? Omc->records().size() : 0;
  ASSERT_EQ(Archive.objects().size(), Rows);
  for (size_t I = 0; I != Rows; ++I) {
    const omc::ObjectRecord &Rec = Omc->records()[I];
    EXPECT_TRUE(Archive.objects()[I] ==
                (whomp::ObjectAux{Rec.Group, Rec.Serial, Rec.Size,
                                  Rec.AllocTime, Rec.FreeTime}))
        << "object row " << I;
  }
  EXPECT_EQ(Archive.serialize(), Bytes);
}

using DirectFinalizeParam = std::tuple<const char *, unsigned>;

class DirectFinalizeTest
    : public ::testing::TestWithParam<DirectFinalizeParam> {};

} // namespace

TEST_P(DirectFinalizeTest, BytesHoldGrammarImagesAndObjectRows) {
  auto [Workload, Threads] = GetParam();
  std::string Path = tempPath(std::string("direct_") + Workload + "_" +
                              std::to_string(Threads) + ".orpt");
  recordTrace(Workload, Path, /*Scale=*/1, /*BlockBytes=*/64 << 10);
  traceio::TraceReader Reader;
  ASSERT_TRUE(Reader.open(Path)) << Reader.error();
  session::SessionConfig Config = configFor(Reader);
  Config.ProfilerThreads = Threads;
  session::ProfileSession Session("direct", Config);
  ASSERT_TRUE(Session.replayFrom(Reader)) << Session.error();
  SessionArtifacts A = Session.finalize();
  ASSERT_FALSE(A.Failed) << A.Error;
  expectArchiveOf(A.Omsg, *Session.whomp(), &Session.core().omc());
  // Without an object manager the archive carries no object table.
  expectArchiveOf(whomp::OmsgArchive::serializeProfile(*Session.whomp()),
                  *Session.whomp(), nullptr);
  std::remove(Path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, DirectFinalizeTest,
    ::testing::Combine(::testing::Values("list-traversal", "175.vpr-a",
                                         "181.mcf-a"),
                       ::testing::Values(1u, 2u)),
    [](const ::testing::TestParamInfo<DirectFinalizeParam> &Info) {
      std::string Name = std::get<0>(Info.param);
      for (char &C : Name)
        if (!std::isalnum(static_cast<unsigned char>(C)))
          C = '_';
      return Name + "_t" + std::to_string(std::get<1>(Info.param));
    });

TEST(ProfileSessionTest, UnstorableTerminalFailsFinalizeWithoutAborting) {
  // Replay succeeds; finalize reports the dimension instead of reaching
  // serialize()'s fatal guard, writes no OMSG and still writes LEAP.
  for (unsigned Threads : {1u, 2u}) {
    traceio::TraceReader Reader;
    ASSERT_TRUE(Reader.open(kHugeOffsetTrace)) << Reader.error();
    session::SessionConfig Config = configFor(Reader);
    Config.ProfilerThreads = Threads;
    session::ProfileSession Session("huge", Config);
    ASSERT_TRUE(Session.replayFrom(Reader)) << Session.error();
    SessionArtifacts A = Session.finalize();
    EXPECT_TRUE(A.Failed) << "threads=" << Threads;
    EXPECT_EQ(A.Error, std::string("huge: ") + kUnstorableOffset);
    EXPECT_TRUE(A.Omsg.empty());
    EXPECT_FALSE(A.Leap.empty());
    EXPECT_EQ(A.Events, 6u);
    EXPECT_FALSE(Session.whomp()
                     ->grammarFor(core::Dimension::Offset)
                     .fitsImage());
    EXPECT_TRUE(Session.whomp()
                    ->grammarFor(core::Dimension::Instruction)
                    .fitsImage());
  }
}

TEST(ProfileSessionTest, ReplayCountsEventsAndPublishesDecodeQueue) {
  // replayFrom's telemetry: replay.events counts exactly the events it
  // injected, replay.total times each call, and decoding ahead
  // publishes the decode queue's final counters.
  std::string Path = tempPath("replay_telemetry.orpt");
  ASSERT_NO_FATAL_FAILURE(recordTrace("list-traversal", Path));
  traceio::TraceReader Reader;
  ASSERT_TRUE(Reader.open(Path)) << Reader.error();
  const uint64_t Blocks = Reader.numEventBlocks();
  ASSERT_GE(Blocks, 2u);
  telemetry::Registry &Reg = telemetry::Registry::global();
  auto ReplayTimings = [](const telemetry::MetricsSnapshot &S) {
    for (const auto &T : S.Timers)
      if (T.Name == "replay.total")
        return T.Count;
    return uint64_t(0);
  };
  auto HasGauge = [](const telemetry::MetricsSnapshot &S,
                     const std::string &Name) {
    for (const auto &G : S.Gauges)
      if (G.Name == Name)
        return true;
    return false;
  };
  for (unsigned Threads : {1u, 2u}) {
    SCOPED_TRACE("threads=" + std::to_string(Threads));
    telemetry::MetricsSnapshot Before = Reg.snapshot();
    session::ProfileSession Session("telemetry", configFor(Reader));
    ASSERT_TRUE(Session.replayFrom(Reader, Threads)) << Session.error();
    telemetry::MetricsSnapshot After = Reg.snapshot();
    EXPECT_EQ(Session.eventsInjected(), Reader.info().TotalEvents);
    EXPECT_EQ(After.counter("replay.events") - Before.counter("replay.events"),
              Session.eventsInjected());
    EXPECT_EQ(ReplayTimings(After) - ReplayTimings(Before), 1u);
    if (Threads == 1)
      continue;
    for (const char *Name :
         {"replay.decode_queue.capacity",
          "replay.decode_queue.high_watermark", "replay.decode_queue.pushes",
          "replay.decode_queue.push_stalls"})
      EXPECT_TRUE(HasGauge(After, Name)) << Name;
    EXPECT_EQ(After.gauge("replay.decode_queue.capacity"),
              static_cast<int64_t>(session::ProfileSession::DecodeQueueDepth));
    EXPECT_EQ(After.gauge("replay.decode_queue.pushes"),
              static_cast<int64_t>(Blocks));
    EXPECT_GE(After.gauge("replay.decode_queue.high_watermark"), 1);
  }
  std::remove(Path.c_str());
}

TEST(SessionManagerTest, CloseBytesHoldGrammarImagesAndObjectRows) {
  ScopedRole Role(session::SessionControlRole);
  std::string Path = tempPath("direct_close.orpt");
  recordTrace("175.vpr-a", Path);
  traceio::TraceReader Reader;
  ASSERT_TRUE(Reader.open(Path)) << Reader.error();
  session::ProfileSession Serial("serial", configFor(Reader));
  ASSERT_TRUE(Serial.replayFrom(Reader)) << Serial.error();
  std::vector<uint8_t> Want = Serial.finalize().Omsg;

  session::ManagerConfig Config;
  Config.Threads = 2;
  session::SessionManager Mgr(Config);
  SessionId Id = openFor(Mgr, Reader, "direct");
  for (size_t I = 0; I != Reader.numEventBlocks(); ++I)
    submitBlock(Mgr, Id, Reader, I);
  SessionArtifacts Art = Mgr.close(Id);
  ASSERT_FALSE(Art.Failed) << Art.Error;
  EXPECT_EQ(Art.Omsg, Want);
  expectArchiveOf(Art.Omsg, *Serial.whomp(), &Serial.core().omc());
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Wire protocol codecs
//===----------------------------------------------------------------------===//

TEST(WireTest, FrameParserReassemblesByteByByte) {
  std::vector<uint8_t> Stream;
  session::appendFrame(session::FrameType::Open, {1, 2, 3}, Stream);
  session::appendFrame(session::FrameType::Close, {}, Stream);

  session::FrameParser Parser;
  std::vector<session::Frame> Got;
  session::Frame F;
  for (uint8_t Byte : Stream) {
    Parser.feed(&Byte, 1);
    while (Parser.next(F))
      Got.push_back(F);
  }
  ASSERT_EQ(Got.size(), 2u);
  EXPECT_EQ(Got[0].Type, session::FrameType::Open);
  EXPECT_EQ(Got[0].Payload, (std::vector<uint8_t>{1, 2, 3}));
  EXPECT_EQ(Got[1].Type, session::FrameType::Close);
  EXPECT_TRUE(Got[1].Payload.empty());
  EXPECT_FALSE(Parser.failed());
}

TEST(WireTest, FrameParserRejectsOversizedLength) {
  // Length prefix far over kMaxFrameLength: a desynced client.
  std::vector<uint8_t> Bad = {0xff, 0xff, 0xff, 0xff, 0x01};
  session::FrameParser Parser;
  Parser.feed(Bad.data(), Bad.size());
  session::Frame F;
  EXPECT_FALSE(Parser.next(F));
  EXPECT_TRUE(Parser.failed());
  EXPECT_NE(Parser.error().find("bad frame length"), std::string::npos);
}

TEST(WireTest, OpenRequestRoundTrips) {
  session::OpenRequest Req;
  Req.Name = "roundtrip";
  Req.Config.Policy = memsim::AllocPolicy::BestFit;
  Req.Config.Seed = 1234567;
  Req.Config.EnableWhomp = true;
  Req.Config.EnableLeap = false;
  Req.Config.MaxLmads = 17;
  Req.Instrs.push_back({"load_a", trace::AccessKind::Load});
  Req.Sites.push_back({"site_x", "node_t"});

  std::vector<uint8_t> Payload;
  session::encodeOpen(Req, Payload);
  session::OpenRequest Out;
  std::string Err;
  ASSERT_TRUE(session::decodeOpen(Payload.data(), Payload.size(), Out, Err))
      << Err;
  EXPECT_EQ(Out.Name, "roundtrip");
  EXPECT_EQ(Out.Config.Policy, memsim::AllocPolicy::BestFit);
  EXPECT_EQ(Out.Config.Seed, 1234567u);
  EXPECT_TRUE(Out.Config.EnableWhomp);
  EXPECT_FALSE(Out.Config.EnableLeap);
  EXPECT_EQ(Out.Config.MaxLmads, 17u);
  ASSERT_EQ(Out.Instrs.size(), 1u);
  EXPECT_EQ(Out.Instrs[0].Name, "load_a");
  ASSERT_EQ(Out.Sites.size(), 1u);
  EXPECT_EQ(Out.Sites[0].TypeName, "node_t");

  // Truncation is an error, not a crash.
  ASSERT_GT(Payload.size(), 3u);
  EXPECT_FALSE(
      session::decodeOpen(Payload.data(), Payload.size() - 3, Out, Err));
  EXPECT_FALSE(Err.empty());
}

namespace {

/// A hand-built OPEN payload, so tests can place values encodeOpen's
/// typed request cannot hold: name "s", \p Policy, seed 0, both
/// profilers, \p Cap, and one instruction of kind \p Kind.
std::vector<uint8_t> openPayload(uint8_t Policy, uint64_t Cap,
                                 uint8_t Kind) {
  std::vector<uint8_t> P = {1, 's', Policy, 0, 0, 0, 0, 0, 0, 0, 0, 3};
  encodeULEB128(Cap, P);
  P.insert(P.end(), {/*instrs=*/1, /*name=*/1, 'i', Kind, /*sites=*/0});
  return P;
}

/// Decodes \p Payload as an OPEN frame, expecting rejection with
/// \p Needle in the error.
void expectOpenRejected(const std::vector<uint8_t> &Payload,
                        const std::string &Needle) {
  session::OpenRequest Out;
  std::string Err;
  EXPECT_FALSE(session::decodeOpen(Payload.data(), Payload.size(), Out, Err));
  EXPECT_NE(Err.find(Needle), std::string::npos) << Err;
}

} // namespace

TEST(WireTest, OpenAcceptsTheHandBuiltPayload) {
  session::OpenRequest Out;
  std::string Err;
  std::vector<uint8_t> P =
      openPayload(3, lmad::LmadCompressor::MaxDescriptorCap, /*Store=*/1);
  ASSERT_TRUE(session::decodeOpen(P.data(), P.size(), Out, Err)) << Err;
  EXPECT_EQ(Out.Config.Policy, memsim::AllocPolicy::Segregated);
  EXPECT_EQ(Out.Config.MaxLmads, lmad::LmadCompressor::MaxDescriptorCap);
  ASSERT_EQ(Out.Instrs.size(), 1u);
  EXPECT_EQ(Out.Instrs[0].Kind, trace::AccessKind::Store);
}

TEST(WireTest, OpenRejectsUnknownAllocPolicy) {
  expectOpenRejected(openPayload(4, 30, 0),
                     "OPEN frame: unknown allocation policy 4");
}

TEST(WireTest, OpenRejectsImplausibleDescriptorCap) {
  // 0 and 2^32 would truncate into a session whose own .leap the
  // profile parser rejects; the cap bound is shared with that parser.
  expectOpenRejected(openPayload(0, 0, 0), "implausible descriptor cap 0");
  expectOpenRejected(openPayload(0, 1ull << 32, 0),
                     "implausible descriptor cap 4294967296");
  expectOpenRejected(openPayload(0, lmad::LmadCompressor::MaxDescriptorCap + 1,
                                 0),
                     "implausible descriptor cap");
}

TEST(WireTest, OpenRejectsUnknownAccessKind) {
  expectOpenRejected(openPayload(0, 30, 2),
                     "instruction kind: unknown access kind 2");
}

TEST(WireTest, EventsHeaderAndCloseSummaryRoundTrip) {
  std::vector<uint8_t> Payload;
  session::encodeEventsHeader(99, 1234, traceio::kFormatVersionV2,
                              0xdeadbeef, Payload);
  Payload.push_back(0x7f); // The block payload follows the header.
  session::EventsHeader H;
  std::string Err;
  ASSERT_TRUE(
      session::decodeEventsHeader(Payload.data(), Payload.size(), H, Err))
      << Err;
  EXPECT_EQ(H.SessionId, 99u);
  EXPECT_EQ(H.EventCount, 1234u);
  EXPECT_EQ(H.FormatVersion, traceio::kFormatVersionV2);
  EXPECT_EQ(H.Crc, 0xdeadbeefu);
  EXPECT_EQ(Payload[H.PayloadOffset], 0x7f);

  session::CloseSummary S;
  S.Events = 42;
  S.Failed = true;
  S.Error = "boom";
  S.Omsg = {1, 2};
  S.Leap = {3};
  std::vector<uint8_t> Encoded;
  session::encodeCloseSummary(S, Encoded);
  session::CloseSummary Out;
  ASSERT_TRUE(session::decodeCloseSummary(Encoded.data(), Encoded.size(),
                                          Out, Err))
      << Err;
  EXPECT_EQ(Out.Events, 42u);
  EXPECT_TRUE(Out.Failed);
  EXPECT_EQ(Out.Error, "boom");
  EXPECT_EQ(Out.Omsg, S.Omsg);
  EXPECT_EQ(Out.Leap, S.Leap);
}

TEST(WireTest, SessionIdPayloadRejectsTrailingBytes) {
  std::vector<uint8_t> Payload;
  session::encodeSessionId(300, Payload);
  uint64_t Id = 0;
  std::string Err;
  ASSERT_TRUE(session::decodeSessionId(Payload.data(), Payload.size(),
                                       "CLOSE frame", Id, Err))
      << Err;
  EXPECT_EQ(Id, 300u);

  Payload.push_back(0);
  EXPECT_FALSE(session::decodeSessionId(Payload.data(), Payload.size(),
                                        "CLOSE frame", Id, Err));
  EXPECT_EQ(Err, "CLOSE frame: trailing bytes");

  Err.clear();
  EXPECT_FALSE(session::decodeSessionId(Payload.data(), 0, "OPEN reply", Id,
                                        Err));
  EXPECT_EQ(Err.rfind("OPEN reply: session id: ", 0), 0u) << Err;
}

//===----------------------------------------------------------------------===//
// Daemon + client, in process
//===----------------------------------------------------------------------===//

namespace {

/// Runs a Daemon on a background thread for one test's lifetime.
class DaemonFixture {
public:
  explicit DaemonFixture(const std::string &Tag, unsigned Threads = 2) {
    Config.SocketPath = tempPath(Tag + ".sock");
    Config.Manager.Threads = Threads;
    Daemon = std::make_unique<session::Daemon>(Config);
    std::string Err;
    {
      // start() runs here, before the control thread exists; the claim
      // hands over when the run() thread below claims for its lifetime.
      ScopedRole Role(session::SessionControlRole);
      Started = Daemon->start(Err);
    }
    EXPECT_TRUE(Started) << Err;
    if (Started)
      Thread = std::make_unique<support::ScopedThread>([this] {
        ScopedRole Role(session::SessionControlRole);
        Daemon->run([this] { return Stop.load(); });
      });
  }

  ~DaemonFixture() {
    Stop.store(true);
    if (Thread)
      Thread->join();
    Daemon.reset();
    std::remove(Config.SocketPath.c_str());
  }

  const std::string &socketPath() const { return Config.SocketPath; }
  bool started() const { return Started; }

private:
  session::DaemonConfig Config;
  std::unique_ptr<session::Daemon> Daemon;
  std::unique_ptr<support::ScopedThread> Thread;
  std::atomic<bool> Stop{false};
  bool Started = false;
};

/// Counter \p Name in a compact-JSON snapshot text; 0 when absent.
uint64_t counterInJson(const std::string &Json, const std::string &Name) {
  std::string Key = "\"" + Name + "\":";
  size_t Pos = Json.find(Key);
  return Pos == std::string::npos
             ? 0
             : std::strtoull(Json.c_str() + Pos + Key.size(), nullptr, 10);
}

/// Opens a session for \p Reader's trace over \p Client.
bool openOver(session::Client &Client, traceio::TraceReader &Reader,
              const std::string &Name, uint64_t &Id, std::string &Err) {
  session::OpenRequest Req;
  Req.Name = Name;
  Req.Config = configFor(Reader);
  Req.Instrs = Reader.instructions();
  Req.Sites = Reader.allocSites();
  return Client.openSession(Req, Id, Err);
}

} // namespace

TEST(DaemonTest, RoundTripMatchesSerialReplay) {
  std::string Path = tempPath("daemon.orpt");
  recordTrace("list-traversal", Path);
  SessionArtifacts Serial = serialArtifacts(Path);

  DaemonFixture Fixture("rt");
  ASSERT_TRUE(Fixture.started());

  traceio::TraceReader Reader;
  ASSERT_TRUE(Reader.open(Path)) << Reader.error();

  session::Client Client;
  std::string Err;
  ASSERT_TRUE(Client.connect(Fixture.socketPath(), Err)) << Err;

  uint64_t Id = 0;
  ASSERT_TRUE(openOver(Client, Reader, "rt", Id, Err)) << Err;
  ASSERT_TRUE(Client.submitTrace(Id, Reader, Err)) << Err;

  // Live per-session telemetry through the existing exporters.
  std::string Prom;
  ASSERT_TRUE(Client.snapshot(/*Format=*/2, "rt", Prom, Err)) << Err;
  EXPECT_NE(Prom.find("orp_session_rt_events"), std::string::npos) << Prom;
  std::string Json;
  ASSERT_TRUE(Client.snapshot(/*Format=*/0, "", Json, Err)) << Err;
  EXPECT_NE(Json.find("\"session.live\""), std::string::npos);

  session::CloseSummary Summary;
  ASSERT_TRUE(Client.closeSession(Id, Summary, Err)) << Err;
  EXPECT_FALSE(Summary.Failed) << Summary.Error;
  EXPECT_EQ(Summary.Events, Serial.Events);
  EXPECT_EQ(Summary.Omsg, Serial.Omsg);
  EXPECT_EQ(Summary.Leap, Serial.Leap);
  std::remove(Path.c_str());
}

TEST(DaemonTest, TwoClientsInterleavedMatchSerialReplay) {
  std::string PathA = tempPath("dual_a.orpt");
  std::string PathB = tempPath("dual_b.orpt");
  recordTrace("list-traversal", PathA, /*Scale=*/1);
  recordTrace("list-traversal", PathB, /*Scale=*/2);
  SessionArtifacts SerialA = serialArtifacts(PathA);
  SessionArtifacts SerialB = serialArtifacts(PathB);

  DaemonFixture Fixture("dual");
  ASSERT_TRUE(Fixture.started());

  traceio::TraceReader ReaderA, ReaderB;
  ASSERT_TRUE(ReaderA.open(PathA)) << ReaderA.error();
  ASSERT_TRUE(ReaderB.open(PathB)) << ReaderB.error();

  session::Client ClientA, ClientB;
  std::string Err;
  ASSERT_TRUE(ClientA.connect(Fixture.socketPath(), Err)) << Err;
  ASSERT_TRUE(ClientB.connect(Fixture.socketPath(), Err)) << Err;

  uint64_t IdA = 0, IdB = 0;
  ASSERT_TRUE(openOver(ClientA, ReaderA, "dual_a", IdA, Err)) << Err;
  ASSERT_TRUE(openOver(ClientB, ReaderB, "dual_b", IdB, Err)) << Err;

  // Interleave at block granularity across the two connections.
  size_t NumA = ReaderA.numEventBlocks(), NumB = ReaderB.numEventBlocks();
  for (size_t I = 0; I < NumA || I < NumB; ++I) {
    if (I < NumA) {
      ASSERT_TRUE(ClientA.submitBlock(IdA, ReaderA.rawBlock(I),
                                      ReaderA.info().Version, Err))
          << Err;
    }
    if (I < NumB) {
      ASSERT_TRUE(ClientB.submitBlock(IdB, ReaderB.rawBlock(I),
                                      ReaderB.info().Version, Err))
          << Err;
    }
  }

  session::CloseSummary SummaryA, SummaryB;
  ASSERT_TRUE(ClientA.closeSession(IdA, SummaryA, Err)) << Err;
  ASSERT_TRUE(ClientB.closeSession(IdB, SummaryB, Err)) << Err;
  EXPECT_FALSE(SummaryA.Failed) << SummaryA.Error;
  EXPECT_FALSE(SummaryB.Failed) << SummaryB.Error;
  EXPECT_EQ(SummaryA.Omsg, SerialA.Omsg);
  EXPECT_EQ(SummaryA.Leap, SerialA.Leap);
  EXPECT_EQ(SummaryB.Omsg, SerialB.Omsg);
  EXPECT_EQ(SummaryB.Leap, SerialB.Leap);
  std::remove(PathA.c_str());
  std::remove(PathB.c_str());
}

TEST(DaemonTest, AbruptDisconnectAbortsOnlyThatClientsSessions) {
  std::string Path = tempPath("drop.orpt");
  recordTrace("list-traversal", Path);
  SessionArtifacts Serial = serialArtifacts(Path);

  DaemonFixture Fixture("drop");
  ASSERT_TRUE(Fixture.started());

  traceio::TraceReader Reader;
  ASSERT_TRUE(Reader.open(Path)) << Reader.error();

  // Counters are read from the daemon's SNAPSHOT replies: the daemon
  // thread owns the registry's snapshot discipline, not this one.
  session::Client Client;
  std::string Err;
  ASSERT_TRUE(Client.connect(Fixture.socketPath(), Err)) << Err;
  auto Aborted = [&Client, &Err](uint64_t &Count) {
    std::string Text;
    if (!Client.snapshot(/*Format=*/1, "", Text, Err))
      return false;
    Count = counterInJson(Text, "session.aborted");
    return true;
  };
  uint64_t AbortedBefore = 0;
  ASSERT_TRUE(Aborted(AbortedBefore)) << Err;

  // Client A opens a session, streams one block, and vanishes.
  {
    session::Client Doomed;
    std::string Err;
    ASSERT_TRUE(Doomed.connect(Fixture.socketPath(), Err)) << Err;
    uint64_t Id = 0;
    ASSERT_TRUE(openOver(Doomed, Reader, "doomed", Id, Err)) << Err;
    ASSERT_TRUE(Doomed.submitBlock(Id, Reader.rawBlock(0),
                                   Reader.info().Version, Err))
        << Err;
  } // Destructor closes the socket mid-stream; no CLOSE frame sent.

  // Client B is unaffected: full stream, byte-identical profile.
  uint64_t Id = 0;
  ASSERT_TRUE(openOver(Client, Reader, "survivor", Id, Err)) << Err;
  ASSERT_TRUE(Client.submitTrace(Id, Reader, Err)) << Err;

  // The daemon reaps the dead connection when its hangup is polled,
  // which may trail this client's requests; ask until the abort shows.
  uint64_t AbortedNow = AbortedBefore;
  for (int Try = 0; Try != 200 && AbortedNow == AbortedBefore; ++Try)
    ASSERT_TRUE(Aborted(AbortedNow)) << Err;
  EXPECT_EQ(AbortedNow, AbortedBefore + 1);

  session::CloseSummary Summary;
  ASSERT_TRUE(Client.closeSession(Id, Summary, Err)) << Err;
  EXPECT_FALSE(Summary.Failed) << Summary.Error;
  EXPECT_EQ(Summary.Omsg, Serial.Omsg);
  EXPECT_EQ(Summary.Leap, Serial.Leap);
  std::remove(Path.c_str());
}

TEST(DaemonTest, CorruptStreamGetsErrorReplyOthersUnaffected) {
  std::string Path = tempPath("derr.orpt");
  recordTrace("list-traversal", Path);
  SessionArtifacts Serial = serialArtifacts(Path);

  DaemonFixture Fixture("derr");
  ASSERT_TRUE(Fixture.started());

  traceio::TraceReader Reader;
  ASSERT_TRUE(Reader.open(Path)) << Reader.error();

  session::Client Client;
  std::string Err;
  ASSERT_TRUE(Client.connect(Fixture.socketPath(), Err)) << Err;
  uint64_t BadId = 0, GoodId = 0;
  ASSERT_TRUE(openOver(Client, Reader, "derr_bad", BadId, Err)) << Err;
  ASSERT_TRUE(openOver(Client, Reader, "derr_good", GoodId, Err)) << Err;

  // A tampered block: the daemon keeps running and the session reports
  // its decode error on the next submit (or at close).
  traceio::TraceReader::RawBlock B0 = Reader.rawBlock(0);
  traceio::TraceReader::RawBlock Tampered = B0;
  std::vector<uint8_t> Bytes(B0.Payload, B0.Payload + B0.PayloadLen);
  Bytes[Bytes.size() / 2] ^= 0x20;
  Tampered.Payload = Bytes.data();
  ASSERT_TRUE(Client.submitBlock(BadId, Tampered, Reader.info().Version,
                                 Err))
      << Err;

  ASSERT_TRUE(Client.submitTrace(GoodId, Reader, Err)) << Err;

  session::CloseSummary BadSummary;
  ASSERT_TRUE(Client.closeSession(BadId, BadSummary, Err)) << Err;
  EXPECT_TRUE(BadSummary.Failed);
  EXPECT_NE(BadSummary.Error.find("checksum mismatch"), std::string::npos)
      << BadSummary.Error;

  session::CloseSummary GoodSummary;
  ASSERT_TRUE(Client.closeSession(GoodId, GoodSummary, Err)) << Err;
  EXPECT_FALSE(GoodSummary.Failed) << GoodSummary.Error;
  EXPECT_EQ(GoodSummary.Omsg, Serial.Omsg);
  EXPECT_EQ(GoodSummary.Leap, Serial.Leap);
  std::remove(Path.c_str());
}

TEST(DaemonTest, UnstorableTerminalFailsOnlyItsOwnClose) {
  // Two clients stream concurrently: one the huge-offset trace, one a
  // healthy trace. The huge session's CLOSE carries the structured
  // error; the healthy one's artifacts equal a serial replay, and the
  // daemon keeps serving.
  std::string Path = tempPath("dhuge.orpt");
  recordTrace("list-traversal", Path);
  SessionArtifacts Serial = serialArtifacts(Path);

  DaemonFixture Fixture("dhuge");
  ASSERT_TRUE(Fixture.started());

  traceio::TraceReader Good, Huge;
  ASSERT_TRUE(Good.open(Path)) << Good.error();
  ASSERT_TRUE(Huge.open(kHugeOffsetTrace)) << Huge.error();

  session::Client GoodClient, HugeClient;
  std::string Err;
  ASSERT_TRUE(GoodClient.connect(Fixture.socketPath(), Err)) << Err;
  ASSERT_TRUE(HugeClient.connect(Fixture.socketPath(), Err)) << Err;
  uint64_t GoodId = 0, HugeId = 0;
  ASSERT_TRUE(openOver(GoodClient, Good, "dhuge_good", GoodId, Err)) << Err;
  ASSERT_TRUE(openOver(HugeClient, Huge, "dhuge_bad", HugeId, Err)) << Err;
  for (size_t I = 0; I != Good.numEventBlocks(); ++I) {
    ASSERT_TRUE(GoodClient.submitBlock(GoodId, Good.rawBlock(I),
                                       Good.info().Version, Err))
        << Err;
    if (I == 0) {
      ASSERT_TRUE(HugeClient.submitTrace(HugeId, Huge, Err)) << Err;
      session::CloseSummary HugeSummary;
      ASSERT_TRUE(HugeClient.closeSession(HugeId, HugeSummary, Err)) << Err;
      EXPECT_TRUE(HugeSummary.Failed);
      EXPECT_EQ(HugeSummary.Error,
                std::string("dhuge_bad: ") + kUnstorableOffset);
      EXPECT_TRUE(HugeSummary.Omsg.empty());
    }
  }

  session::CloseSummary GoodSummary;
  ASSERT_TRUE(GoodClient.closeSession(GoodId, GoodSummary, Err)) << Err;
  EXPECT_FALSE(GoodSummary.Failed) << GoodSummary.Error;
  EXPECT_EQ(GoodSummary.Omsg, Serial.Omsg);
  EXPECT_EQ(GoodSummary.Leap, Serial.Leap);

  // The same connection still opens and finishes a new session.
  uint64_t AgainId = 0;
  ASSERT_TRUE(openOver(HugeClient, Good, "dhuge_again", AgainId, Err)) << Err;
  ASSERT_TRUE(HugeClient.submitTrace(AgainId, Good, Err)) << Err;
  session::CloseSummary Again;
  ASSERT_TRUE(HugeClient.closeSession(AgainId, Again, Err)) << Err;
  EXPECT_FALSE(Again.Failed) << Again.Error;
  EXPECT_EQ(Again.Omsg, Serial.Omsg);
  std::remove(Path.c_str());
}

TEST(DaemonTest, ClosingForeignSessionIsRejected) {
  DaemonFixture Fixture("foreign");
  ASSERT_TRUE(Fixture.started());

  session::Client A, B;
  std::string Err;
  ASSERT_TRUE(A.connect(Fixture.socketPath(), Err)) << Err;
  ASSERT_TRUE(B.connect(Fixture.socketPath(), Err)) << Err;

  session::OpenRequest Req;
  Req.Name = "mine";
  uint64_t Id = 0;
  ASSERT_TRUE(A.openSession(Req, Id, Err)) << Err;

  // B never opened Id; the daemon must not let it close A's session.
  session::CloseSummary Summary;
  EXPECT_FALSE(B.closeSession(Id, Summary, Err));
  EXPECT_NE(Err.find("not open on this connection"), std::string::npos)
      << Err;

  ASSERT_TRUE(A.closeSession(Id, Summary, Err)) << Err;
  EXPECT_FALSE(Summary.Failed);
}

TEST(DaemonTest, EventsForForeignSessionIsRejected) {
  std::string Path = tempPath("fevents.orpt");
  recordTrace("list-traversal", Path);
  SessionArtifacts Serial = serialArtifacts(Path);

  DaemonFixture Fixture("fevents");
  ASSERT_TRUE(Fixture.started());
  traceio::TraceReader Reader;
  ASSERT_TRUE(Reader.open(Path)) << Reader.error();

  session::Client A, B;
  std::string Err;
  ASSERT_TRUE(A.connect(Fixture.socketPath(), Err)) << Err;
  ASSERT_TRUE(B.connect(Fixture.socketPath(), Err)) << Err;
  uint64_t Id = 0;
  ASSERT_TRUE(openOver(A, Reader, "owned", Id, Err)) << Err;

  // B never opened Id: its blocks must not reach A's session.
  EXPECT_FALSE(B.submitBlock(Id, Reader.rawBlock(0), Reader.info().Version,
                             Err));
  EXPECT_NE(Err.find("session " + std::to_string(Id) +
                     " not open on this connection"),
            std::string::npos)
      << Err;

  ASSERT_TRUE(A.submitTrace(Id, Reader, Err)) << Err;
  session::CloseSummary Summary;
  ASSERT_TRUE(A.closeSession(Id, Summary, Err)) << Err;
  EXPECT_FALSE(Summary.Failed) << Summary.Error;
  EXPECT_EQ(Summary.Omsg, Serial.Omsg);
  EXPECT_EQ(Summary.Leap, Serial.Leap);
  std::remove(Path.c_str());
}

namespace {

/// A raw connection to the daemon, so a test can pipeline requests the
/// blocking Client would send one at a time.
class RawConn {
public:
  explicit RawConn(const std::string &SocketPath) {
    sockaddr_un Addr{};
    Addr.sun_family = AF_UNIX;
    if (SocketPath.size() >= sizeof(Addr.sun_path))
      return;
    std::memcpy(Addr.sun_path, SocketPath.c_str(), SocketPath.size() + 1);
    Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (Fd >= 0 &&
        ::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
      ::close(Fd);
      Fd = -1;
    }
  }
  ~RawConn() {
    if (Fd >= 0)
      ::close(Fd);
  }

  bool ok() const { return Fd >= 0; }

  bool send(const std::vector<uint8_t> &Bytes) {
    for (size_t Pos = 0; Pos != Bytes.size();) {
      ssize_t N = ::send(Fd, Bytes.data() + Pos, Bytes.size() - Pos,
                         MSG_NOSIGNAL);
      if (N <= 0)
        return false;
      Pos += static_cast<size_t>(N);
    }
    return true;
  }

  bool recv(session::Frame &Out) {
    while (!Parser.next(Out)) {
      uint8_t Buf[64 * 1024];
      ssize_t N = ::recv(Fd, Buf, sizeof(Buf), 0);
      if (N <= 0 || Parser.failed())
        return false;
      Parser.feed(Buf, static_cast<size_t>(N));
    }
    return true;
  }

private:
  int Fd = -1;
  session::FrameParser Parser;
};

} // namespace

TEST(DaemonTest, PipelinedRequestsGetRepliesInRequestOrder) {
  std::string Path = tempPath("order.orpt");
  recordTrace("list-traversal", Path);
  SessionArtifacts Serial = serialArtifacts(Path);

  // One shard, and more blocks than the default ingest queue holds: the
  // pipelined EVENTS stall, and the CLOSE and SNAPSHOT behind them wait
  // their turn.
  DaemonFixture Fixture("order", /*Threads=*/1);
  ASSERT_TRUE(Fixture.started());
  traceio::TraceReader Reader;
  ASSERT_TRUE(Reader.open(Path)) << Reader.error();
  ASSERT_GT(Reader.numEventBlocks(),
            session::ManagerConfig{}.IngestQueueCapacity + 1);
  RawConn Conn(Fixture.socketPath());
  ASSERT_TRUE(Conn.ok());

  session::OpenRequest Req;
  Req.Name = "order";
  Req.Config = configFor(Reader);
  Req.Instrs = Reader.instructions();
  Req.Sites = Reader.allocSites();
  std::vector<uint8_t> Payload, Stream;
  session::encodeOpen(Req, Payload);
  session::appendFrame(session::FrameType::Open, Payload, Stream);
  ASSERT_TRUE(Conn.send(Stream));
  session::Frame Reply;
  ASSERT_TRUE(Conn.recv(Reply));
  ASSERT_EQ(Reply.Type, session::FrameType::ReplyOk);
  uint64_t Id = 0;
  std::string Err;
  ASSERT_TRUE(session::decodeSessionId(Reply.Payload.data(),
                                       Reply.Payload.size(), "OPEN reply",
                                       Id, Err))
      << Err;

  // Every EVENTS, then CLOSE, then SNAPSHOT, in one write.
  Stream.clear();
  const size_t NumBlocks = Reader.numEventBlocks();
  for (size_t I = 0; I != NumBlocks; ++I) {
    traceio::TraceReader::RawBlock B = Reader.rawBlock(I);
    Payload.clear();
    session::encodeEventsHeader(Id, B.EventCount, Reader.info().Version,
                                B.Crc, Payload);
    Payload.insert(Payload.end(), B.Payload, B.Payload + B.PayloadLen);
    session::appendFrame(session::FrameType::Events, Payload, Stream);
  }
  Payload.clear();
  session::encodeSessionId(Id, Payload);
  session::appendFrame(session::FrameType::Close, Payload, Stream);
  Payload.clear();
  session::encodeSnapshot(session::SnapshotRequest{/*Format=*/1, ""},
                          Payload);
  session::appendFrame(session::FrameType::Snapshot, Payload, Stream);
  ASSERT_TRUE(Conn.send(Stream));

  for (size_t I = 0; I != NumBlocks; ++I) {
    ASSERT_TRUE(Conn.recv(Reply));
    ASSERT_EQ(Reply.Type, session::FrameType::ReplyOk) << "EVENTS " << I;
    EXPECT_TRUE(Reply.Payload.empty());
  }
  ASSERT_TRUE(Conn.recv(Reply));
  ASSERT_EQ(Reply.Type, session::FrameType::ReplyOk);
  session::CloseSummary Summary;
  ASSERT_TRUE(session::decodeCloseSummary(Reply.Payload.data(),
                                          Reply.Payload.size(), Summary, Err))
      << Err;
  EXPECT_FALSE(Summary.Failed) << Summary.Error;
  EXPECT_EQ(Summary.Omsg, Serial.Omsg);
  EXPECT_EQ(Summary.Leap, Serial.Leap);
  ASSERT_TRUE(Conn.recv(Reply));
  EXPECT_EQ(Reply.Type, session::FrameType::ReplySnapshot);
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Version / format pinning
//===----------------------------------------------------------------------===//

TEST(VersionTest, SupportedFormatRangeCoversTheWriterFormat) {
  // support/Version.h cannot include traceio (layering); this pin keeps
  // the advertised range honest when the format gains a revision.
  EXPECT_LE(support::kMinTraceFormatVersion,
            static_cast<unsigned>(traceio::kFormatVersion));
  EXPECT_GE(support::kMaxTraceFormatVersion,
            static_cast<unsigned>(traceio::kFormatVersion));
}
