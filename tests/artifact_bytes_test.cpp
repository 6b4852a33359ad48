//===- tests/artifact_bytes_test.cpp - Pinned artifact byte images -------===//
//
// The absolute byte contract of every framed artifact. The equality
// goldens elsewhere are relative (live vs replay, split vs unsplit,
// CLI vs daemon), so a change to a serializer that moved both sides
// together would pass them all. These tests pin the CRC-32 and size of
// each artifact image — .leap, .omsa, .omst, .orpa and the ORCK
// checkpoint taken at a mid-trace block boundary — for three workloads,
// so any change to any on-disk byte fails here first.
//
//===----------------------------------------------------------------------===//

#include "advisor/AdvisorReport.h"
#include "advisor/HotColdClassifier.h"
#include "core/ProfilingSession.h"
#include "leap/LeapProfileData.h"
#include "session/ProfileSession.h"
#include "support/Checksum.h"
#include "traceio/TraceReader.h"
#include "traceio/TraceWriter.h"
#include "whomp/OmsgArchive.h"
#include "whomp/OmsgStats.h"
#include "workloads/Workload.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

using namespace orp;

namespace {

/// One artifact's pinned identity.
struct Pinned {
  size_t Size;
  uint32_t Crc;
};

/// The pinned images of one workload's run.
struct Goldens {
  const char *Workload;
  size_t BlockBytes;
  Pinned Leap, Omsa, Omst, Orpa, Orck;
};

void expectPinned(const char *What, const std::vector<uint8_t> &Bytes,
                  const Pinned &Want) {
  EXPECT_EQ(Bytes.size(), Want.Size) << What;
  EXPECT_EQ(crc32(Bytes), Want.Crc)
      << What << ": got 0x" << std::hex << crc32(Bytes);
}

/// Records \p Workload (default workload seed, first-fit heap, env seed
/// 7) into \p Path with \p BlockBytes blocks — what `orp-trace record
/// <workload> --env=7 --block-bytes=<BlockBytes>` writes.
void recordTrace(const char *Workload, size_t BlockBytes,
                 const std::string &Path) {
  core::ProfilingSession Session(memsim::AllocPolicy::FirstFit, /*Seed=*/7);
  traceio::TraceWriter Writer(Path, Session.registry(),
                              memsim::AllocPolicy::FirstFit, /*Seed=*/7,
                              BlockBytes);
  ASSERT_TRUE(Writer.ok()) << Writer.error();
  Session.addRawSink(&Writer);
  auto W = workloads::createWorkloadByName(Workload);
  ASSERT_TRUE(W);
  workloads::WorkloadConfig Config;
  W->run(Session.memory(), Session.registry(), Config);
  Session.finish();
  ASSERT_TRUE(Writer.close()) << Writer.error();
}

void checkGoldens(const Goldens &G) {
  std::string Path = test::tempPath(std::string(G.Workload) + ".orpt");
  ASSERT_NO_FATAL_FAILURE(recordTrace(G.Workload, G.BlockBytes, Path));

  traceio::TraceReader Reader;
  ASSERT_TRUE(Reader.open(Path)) << Reader.error();
  ASSERT_GE(Reader.numEventBlocks(), 2u) << G.Workload;
  uint64_t Mid = Reader.numEventBlocks() / 2;

  session::SessionConfig Config;
  Config.Policy = memsim::AllocPolicy::FirstFit;
  Config.Seed = 7;
  session::ProfileSession Session(G.Workload, Config);
  ASSERT_TRUE(Session.replayFrom(Reader, 1, 0, Mid)) << Session.error();
  std::vector<uint8_t> Orck = Session.checkpoint(Reader, Mid);
  ASSERT_TRUE(Session.replayFrom(Reader, 1, Mid)) << Session.error();
  session::SessionArtifacts A = Session.finalize();
  ASSERT_FALSE(A.Failed) << A.Error;

  leap::LeapProfileData Leap;
  whomp::OmsgArchive Omsg;
  std::string Err;
  ASSERT_TRUE(leap::LeapProfileData::deserialize(A.Leap, Leap, Err)) << Err;
  ASSERT_TRUE(whomp::OmsgArchive::deserialize(A.Omsg, Omsg, Err)) << Err;
  std::vector<uint8_t> Omst = whomp::OmsgStats::fromArchive(Omsg).serialize();
  std::vector<uint8_t> Orpa =
      advisor::HotColdClassifier().classify(Leap, Omsg).serialize();

  SCOPED_TRACE(G.Workload);
  expectPinned(".leap", A.Leap, G.Leap);
  expectPinned(".omsa", A.Omsg, G.Omsa);
  expectPinned(".omst", Omst, G.Omst);
  expectPinned(".orpa", Orpa, G.Orpa);
  expectPinned("ORCK", Orck, G.Orck);
  std::remove(Path.c_str());
}

} // namespace

TEST(ArtifactBytesTest, ListTraversal) {
  checkGoldens({"list-traversal", 1024,
                /*Leap=*/{869, 0x91c0245d},
                /*Omsa=*/{2260, 0x698097bd},
                /*Omst=*/{109, 0xfc3ac297},
                /*Orpa=*/{34, 0xcfcab60b},
                /*Orck=*/{1425, 0x2d359575}});
}

TEST(ArtifactBytesTest, Mcf) {
  checkGoldens({"181.mcf-a", 4096,
                /*Leap=*/{3221, 0x69959b2e},
                /*Omsa=*/{378491, 0x11192ff0},
                /*Omst=*/{125, 0x92b2fc0c},
                /*Orpa=*/{504, 0x4440e13d},
                /*Orck=*/{80, 0xc3a66e8e}});
}

// vpr has the largest offset grammar of the three: the case where
// .omst statistics and the .orpa offset pairs have the most to get wrong.
TEST(ArtifactBytesTest, Vpr) {
  checkGoldens({"175.vpr-a", 4096,
                /*Leap=*/{4735, 0x2b32ccb0},
                /*Omsa=*/{187166, 0xa255cef9},
                /*Omst=*/{147, 0xe33f63b8},
                /*Orpa=*/{603, 0x7d035e79},
                /*Orck=*/{5535, 0xeee8cef9}});
}

// The trace writer's own bytes: a freshly recorded v2 .orpt. Every
// other pin here starts from a recorded trace, but a writer change that
// kept the decoded event stream would pass them all.
TEST(ArtifactBytesTest, RecordedTrace) {
  std::string Path = test::tempPath("recorded.orpt");
  ASSERT_NO_FATAL_FAILURE(recordTrace("list-traversal", 2048, Path));
  std::ifstream In(Path, std::ios::binary);
  std::vector<uint8_t> Bytes((std::istreambuf_iterator<char>(In)),
                             std::istreambuf_iterator<char>());
  expectPinned(".orpt", Bytes, {53495, 0x8d97007b});
  std::remove(Path.c_str());
}
