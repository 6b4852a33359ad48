//===- tests/baseline_test.cpp - Baseline profiler unit tests ------------===//

#include "baseline/ConnorsProfiler.h"
#include "baseline/ExactDependence.h"
#include "baseline/ExactStride.h"
#include "baseline/RasgProfiler.h"
#include "support/Random.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace orp;
using namespace orp::baseline;

namespace {

trace::AccessEvent store(trace::InstrId I, uint64_t Addr, uint64_t T) {
  return trace::AccessEvent{I, Addr, 8, true, T};
}

trace::AccessEvent load(trace::InstrId I, uint64_t Addr, uint64_t T) {
  return trace::AccessEvent{I, Addr, 8, false, T};
}

} // namespace

//===----------------------------------------------------------------------===//
// ExactDependenceProfiler
//===----------------------------------------------------------------------===//

TEST(ExactDependenceTest, SimpleRawDependence) {
  ExactDependenceProfiler P;
  test::deliver(P, store(1, 0x100, 0));
  test::deliver(P, load(2, 0x100, 1));
  test::deliver(P, load(2, 0x200, 2)); // Independent address.
  auto Mdf = P.mdf();
  ASSERT_TRUE(Mdf.count({1, 2}));
  EXPECT_DOUBLE_EQ((Mdf[{1, 2}]), 0.5);
  EXPECT_EQ(P.loadExecCount(2), 2u);
  EXPECT_EQ(P.conflictCount(1, 2), 1u);
}

TEST(ExactDependenceTest, AnyEarlierStoreCounts) {
  // The paper's conflict definition is "st wrote A at t1, ld reads A at
  // t2 > t1" — not just the last writer.
  ExactDependenceProfiler P;
  test::deliver(P, store(1, 0x100, 0));
  test::deliver(P, store(3, 0x100, 1)); // Overwrites, but 1 still conflicts.
  test::deliver(P, load(2, 0x100, 2));
  auto Mdf = P.mdf();
  EXPECT_DOUBLE_EQ((Mdf[{1, 2}]), 1.0);
  EXPECT_DOUBLE_EQ((Mdf[{3, 2}]), 1.0);
}

TEST(ExactDependenceTest, LoadBeforeStoreIsNotRaw) {
  ExactDependenceProfiler P;
  test::deliver(P, load(2, 0x100, 0));
  test::deliver(P, store(1, 0x100, 1));
  EXPECT_TRUE(P.mdf().empty());
}

TEST(ExactDependenceTest, RepeatedStoreCountsOncePerLoadExec) {
  ExactDependenceProfiler P;
  test::deliver(P, store(1, 0x100, 0));
  test::deliver(P, store(1, 0x100, 1));
  test::deliver(P, load(2, 0x100, 2));
  EXPECT_EQ(P.conflictCount(1, 2), 1u);
  test::deliver(P, load(2, 0x100, 3));
  EXPECT_EQ(P.conflictCount(1, 2), 2u);
}

//===----------------------------------------------------------------------===//
// ConnorsProfiler
//===----------------------------------------------------------------------===//

TEST(ConnorsTest, DetectsWithinWindow) {
  ConnorsProfiler P(4);
  test::deliver(P, store(1, 0x100, 0));
  test::deliver(P, load(2, 0x100, 1));
  auto Mdf = P.mdf();
  EXPECT_DOUBLE_EQ((Mdf[{1, 2}]), 1.0);
}

TEST(ConnorsTest, MissesBeyondWindow) {
  ConnorsProfiler P(4);
  test::deliver(P, store(1, 0x100, 0));
  // Push 4 more stores so the window evicts the first one.
  for (int I = 0; I != 4; ++I)
    test::deliver(P, store(3, 0x200 + I * 8, 1 + I));
  test::deliver(P, load(2, 0x100, 10));
  EXPECT_FALSE(P.mdf().count({1, 2})) << "evicted store must be missed";
}

TEST(ConnorsTest, DuplicateStoreInWindowCountsOnce) {
  ConnorsProfiler P(8);
  test::deliver(P, store(1, 0x100, 0));
  test::deliver(P, store(1, 0x100, 1));
  test::deliver(P, load(2, 0x100, 2));
  auto Mdf = P.mdf();
  EXPECT_DOUBLE_EQ((Mdf[{1, 2}]), 1.0);
}

TEST(ConnorsTest, NeverOverestimatesVsExact) {
  // Figure 7's characterization: the window profiler never reports a
  // higher frequency than the exact profiler, on any trace.
  Rng R(11);
  for (int Trial = 0; Trial != 20; ++Trial) {
    ExactDependenceProfiler Exact;
    ConnorsProfiler Connors(16);
    for (int I = 0; I != 2000; ++I) {
      trace::InstrId Instr = static_cast<trace::InstrId>(R.nextBelow(8));
      uint64_t Addr = 0x1000 + R.nextBelow(64) * 8;
      bool IsStore = R.nextBool(0.5);
      trace::AccessEvent E{Instr, Addr, 8, IsStore,
                           static_cast<uint64_t>(I)};
      test::deliver(Exact, E);
      test::deliver(Connors, E);
    }
    auto ExactMdf = Exact.mdf();
    for (const auto &[Pair, Freq] : Connors.mdf()) {
      ASSERT_TRUE(ExactMdf.count(Pair))
          << "window profiler invented a pair";
      ASSERT_LE(Freq, ExactMdf[Pair] + 1e-12)
          << "window profiler overestimated";
    }
  }
}

TEST(ConnorsTest, LargerWindowFindsMore) {
  Rng R(13);
  std::vector<trace::AccessEvent> Trace;
  for (int I = 0; I != 4000; ++I)
    Trace.push_back(trace::AccessEvent{
        static_cast<trace::InstrId>(R.nextBelow(6)),
        0x1000 + R.nextBelow(512) * 8, 8, R.nextBool(0.5),
        static_cast<uint64_t>(I)});
  ConnorsProfiler Small(4), Big(512);
  for (const auto &E : Trace) {
    test::deliver(Small, E);
    test::deliver(Big, E);
  }
  double SmallMass = 0, BigMass = 0;
  for (const auto &[Pair, Freq] : Small.mdf())
    SmallMass += Freq;
  for (const auto &[Pair, Freq] : Big.mdf())
    BigMass += Freq;
  EXPECT_GT(BigMass, SmallMass);
}

//===----------------------------------------------------------------------===//
// ExactStrideProfiler
//===----------------------------------------------------------------------===//

TEST(ExactStrideTest, DetectsPureStride) {
  ExactStrideProfiler P;
  for (int I = 0; I != 100; ++I)
    test::deliver(P, load(1, 0x1000 + I * 8, I));
  auto S = P.stronglyStrided();
  ASSERT_TRUE(S.count(1));
  EXPECT_EQ(S[1].Stride, 8);
  EXPECT_DOUBLE_EQ(S[1].Share, 1.0);
}

TEST(ExactStrideTest, RandomAccessNotStrided) {
  ExactStrideProfiler P;
  Rng R(17);
  for (int I = 0; I != 500; ++I)
    test::deliver(P, load(1, 0x1000 + R.nextBelow(100000) * 8, I));
  EXPECT_FALSE(P.stronglyStrided().count(1));
}

TEST(ExactStrideTest, SeventyPercentBoundary) {
  ExactStrideProfiler P;
  // 70 steps of stride 8, 30 steps of assorted strides: share is
  // exactly 0.70 -> strongly strided at the default threshold.
  uint64_t Addr = 0x1000;
  test::deliver(P, load(1, Addr, 0));
  for (int I = 0; I != 70; ++I)
    test::deliver(P, load(1, Addr += 8, 1 + I));
  for (int I = 0; I != 30; ++I)
    test::deliver(P, load(1, Addr += 24 + I * 16, 100 + I));
  auto S = P.stronglyStrided();
  ASSERT_TRUE(S.count(1));
  EXPECT_NEAR(S[1].Share, 0.70, 1e-9);
}

TEST(ExactStrideTest, TracksAllStrides) {
  ExactStrideProfiler P;
  test::deliver(P, load(1, 100, 0));
  test::deliver(P, load(1, 108, 1));
  test::deliver(P, load(1, 100, 2));
  test::deliver(P, load(1, 108, 3));
  const auto &S = P.strides(1);
  EXPECT_EQ(S.size(), 2u);
  EXPECT_EQ(S.at(8), 2u);
  EXPECT_EQ(S.at(-8), 1u);
}

//===----------------------------------------------------------------------===//
// RasgProfiler
//===----------------------------------------------------------------------===//

TEST(RasgTest, GrammarsRecordBothComponents) {
  RasgProfiler P;
  test::deliver(P, load(1, 0x100, 0));
  test::deliver(P, load(2, 0x108, 1));
  test::deliver(P, load(1, 0x100, 2));
  EXPECT_EQ(P.accessesSeen(), 3u);
  EXPECT_EQ(P.addressGrammar().expandAll(),
            (std::vector<uint64_t>{0x100, 0x108, 0x100}));
  EXPECT_EQ(P.instructionGrammar().expandAll(),
            (std::vector<uint64_t>{1, 2, 1}));
  EXPECT_GT(P.serializedSizeBytes(), 0u);
}

TEST(RasgTest, RepetitiveTraceCompresses) {
  RasgProfiler P;
  for (int Rep = 0; Rep != 200; ++Rep)
    for (int I = 0; I != 4; ++I)
      test::deliver(P, load(static_cast<trace::InstrId>(I), 0x1000 + I * 8,
                      Rep * 4 + I));
  EXPECT_LT(P.serializedSizeBytes(), 200u);
}
