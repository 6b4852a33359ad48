//===- tests/sequitur_fuzz_test.cpp - Fuzz-lite Sequitur suite -----------===//
//
// Part of the ORP reproduction of "Exposing Memory Access Regularities
// Using Object-Relative Memory Profiling" (CGO 2004).
//
//===----------------------------------------------------------------------===//
//
// Deterministic fuzz suite for the arena-backed SequiturGrammar. Every
// stream family in tests/SequiturStreams.h is driven through the
// grammar, which must (a) keep both Sequitur invariants, (b) expand back
// to the exact input, live and through its image, (c) serialize to the
// byte-identical image the pre-arena implementation produced (pinned as
// CRC-32 goldens), and (d) report the pinned rule statistics. (c) is
// the contract that makes the arena/table rewrite a pure optimization:
// Figure 5's grammar sizes cannot move.
//
//===----------------------------------------------------------------------===//

#include "SequiturStreams.h"
#include "SequiturTestUtil.h"
#include "sequitur/GrammarImage.h"
#include "sequitur/Sequitur.h"
#include "support/Checksum.h"
#include "support/Random.h"
#include "support/VarInt.h"

#include <cstdint>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"

using namespace orp;
using namespace orp::sequitur;
using namespace orp::seqtest;
using namespace orp::seqstreams;

namespace {

/// CRC-32 over every ruleStats() field (ULEB128, rule by rule).
uint32_t statsDigest(const std::vector<RuleStats> &Stats) {
  std::vector<uint8_t> Bytes;
  for (const RuleStats &RS : Stats) {
    for (uint64_t V : {RS.Id, uint64_t{RS.BodyLength}, RS.ExpandedLength,
                       RS.Occurrences, uint64_t{RS.Prefix.size()}})
      encodeULEB128(V, Bytes);
    for (uint64_t V : RS.Prefix)
      encodeULEB128(V, Bytes);
  }
  return crc32(Bytes);
}

/// statsDigest(ruleStats()) of each golden stream, recorded from the
/// live-grammar ruleStats() that the image view replaced.
const std::pair<const char *, uint32_t> kStatsDigests[] = {
    {"periodic_p1", 0x2aa8a4d1u},    {"periodic_p2", 0x9457285bu},
    {"periodic_p3", 0xf7c3ef03u},    {"periodic_p7", 0xc6ffa63au},
    {"periodic_p64", 0xaf922eacu},   {"periodic_p1024", 0x2c92865eu},
    {"runs_a2", 0x4662a1adu},        {"runs_a5", 0x2ef0e51au},
    {"random_a2", 0x1bdbaac5u},      {"random_a16", 0xc2b53e72u},
    {"random_a256", 0x2e1b1624u},    {"random_wide", 0x0f789fb5u},
    {"phrases_a4", 0x8e8dbc75u},     {"phrases_a64", 0xc28290b2u},
    {"nested_a3", 0x67fa30e7u},      {"nested_a300", 0x564f2a71u},
    {"sawtooth_a8", 0x7005d411u},    {"sawtooth_a97", 0xfb606945u},
};

TEST(SequiturFuzzTest, GoldenSuiteByteIdentical) {
  size_t Count = 0;
  const StreamCase *Cases = streamCases(Count);
  ASSERT_GT(Count, 0u);
  for (size_t C = 0; C != Count; ++C) {
    const StreamCase &Case = Cases[C];
    std::vector<uint64_t> Input = makeStream(Case);
    ASSERT_EQ(Input.size(), Case.Length) << Case.Name;

    SequiturGrammar G;
    G.appendAll(Input);
    EXPECT_TRUE(healthy(G)) << Case.Name;
    EXPECT_EQ(G.inputLength(), Input.size()) << Case.Name;
    EXPECT_EQ(G.expandAll(), Input) << Case.Name;

    std::vector<uint8_t> Image = G.serialize();
    EXPECT_EQ(crc32(Image), Case.GoldenCrc) << Case.Name;
    EXPECT_EQ(Image.size(), G.serializedSizeBytes()) << Case.Name;
    EXPECT_EQ(expandImage(Image), Input) << Case.Name;
    ASSERT_LT(C, std::size(kStatsDigests));
    EXPECT_STREQ(kStatsDigests[C].first, Case.Name);
    EXPECT_EQ(statsDigest(G.ruleStats()), kStatsDigests[C].second)
        << Case.Name;
  }
  EXPECT_EQ(Count, std::size(kStatsDigests));
}

TEST(SequiturFuzzTest, InvariantsHoldMidStream) {
  // The goldens only pin the final grammar; also probe intermediate
  // states on a couple of structurally different cases.
  size_t Count = 0;
  const StreamCase *Cases = streamCases(Count);
  for (size_t C = 0; C < Count; C += 5) {
    const StreamCase &Case = Cases[C];
    std::vector<uint64_t> Input = makeStream(Case);
    SequiturGrammar G;
    for (size_t I = 0; I != Input.size(); ++I) {
      G.append(Input[I]);
      if ((I & (I + 1)) == 0) { // Check at lengths 2^k - 1.
        ASSERT_TRUE(healthy(G)) << Case.Name << " @ " << I;
      }
    }
    ASSERT_TRUE(healthy(G)) << Case.Name;
  }
}

TEST(SequiturFuzzTest, RandomSeedsRoundTrip) {
  // Unpinned random walk over seeds: no goldens, but the grammar must
  // stay invariant-clean and lossless on every one. This is the part of
  // the suite that keeps fuzzing past the recorded corpus.
  Rng Meta(0xf022ULL);
  for (int Round = 0; Round != 8; ++Round) {
    StreamCase Case{"random_walk", StreamKind::Random,
                    1 + Meta.nextBelow(512),
                    static_cast<uint32_t>(500 + Meta.nextBelow(3000)),
                    Meta.next(), 0};
    std::vector<uint64_t> Input = makeStream(Case);
    SequiturGrammar G;
    G.appendAll(Input);
    ASSERT_TRUE(healthy(G)) << "alphabet " << Case.Alphabet;
    ASSERT_EQ(G.expandAll(), Input) << "alphabet " << Case.Alphabet;
    ASSERT_EQ(expandImage(G.serialize()), Input);
  }
}

/// Phrases of fresh symbols: phrase 0, phrases 1.. each emitted twice,
/// then phrase 0 again and a repeated (last, 1) pair. Every repeat of an
/// unseen phrase creates a rule per digram and inlines all but the last,
/// so rule ids run far ahead of the live-rule count, and phrase 0's
/// rule, created late, is the first one the start rule references.
std::vector<uint64_t> churnStream(unsigned Phrases, unsigned Len) {
  std::vector<std::vector<uint64_t>> P(Phrases);
  uint64_t Fresh = 0;
  for (unsigned I = 0; I != Phrases; ++I)
    for (unsigned J = 0; J != Len + I % 3; ++J)
      P[I].push_back(Fresh++);
  std::vector<uint64_t> V;
  auto Emit = [&](unsigned I) { V.insert(V.end(), P[I].begin(), P[I].end()); };
  Emit(0);
  for (unsigned I = 1; I != Phrases; ++I) {
    Emit(I);
    Emit(I);
    if (I % 2 == 0)
      V.push_back(1000 + I);
  }
  Emit(0);
  for (int Rep = 0; Rep != 2; ++Rep) {
    Emit(Phrases - 1);
    Emit(1);
    V.push_back(2000);
  }
  return V;
}

TEST(SequiturFuzzTest, SparseRuleIdsNumberDensely) {
  // dump() and serialize() number rules densely in first-visit order
  // whatever the internal ids are. Text and CRCs were recorded from the
  // hash-map numbering the per-id vector replaced.
  SequiturGrammar Small;
  Small.appendAll(churnStream(5, 4));
  ASSERT_TRUE(healthy(Small));
  EXPECT_EQ(Small.numRules(), 7u);
  EXPECT_EQ(Small.rulesCreated(), 34u);
  EXPECT_EQ(Small.dump(), "R0 -> R1 R2 R2 R3 R3 1002 R4 R4 R5 R5 1004 R1 R6 R6\n"
                          "R1 -> 0 1 2 3\n"
                          "R2 -> 4 5 6 7 8\n"
                          "R3 -> 9 10 11 12 13 14\n"
                          "R4 -> 15 16 17 18\n"
                          "R5 -> 19 20 21 22 23\n"
                          "R6 -> R5 R2 2000\n");
  EXPECT_EQ(crc32(Small.serialize()), 0xb636a60au);

  std::vector<uint64_t> Input = churnStream(48, 24);
  SequiturGrammar Large;
  Large.appendAll(Input);
  ASSERT_TRUE(healthy(Large));
  EXPECT_EQ(Large.numRules(), 50u);
  EXPECT_EQ(Large.rulesCreated(), 1249u);
  std::vector<uint8_t> Image = Large.serialize();
  EXPECT_EQ(Image.size(), 2537u);
  EXPECT_EQ(crc32(Image), 0xe5dcc714u);
  EXPECT_EQ(expandImage(Image), Input);
  std::vector<RuleStats> Stats = Large.ruleStats();
  ASSERT_EQ(Stats.size(), Large.numRules());
  for (size_t I = 0; I != Stats.size(); ++I)
    EXPECT_EQ(Stats[I].Id, I);
  EXPECT_EQ(Stats[0].ExpandedLength, Input.size());
}

TEST(SequiturFuzzTest, ArenaReusesAcrossStreams) {
  // Periodic streams churn rules heavily (create + inline); the arena
  // must keep the grammar healthy through the churn and numRules() must
  // agree with the reachable set the serializer walks.
  for (uint64_t Period : {2ULL, 3ULL, 5ULL, 17ULL}) {
    SequiturGrammar G;
    for (uint64_t I = 0; I != 50000; ++I)
      G.append(I % Period);
    EXPECT_TRUE(healthy(G)) << Period;
    std::vector<uint64_t> Out = G.expandAll();
    ASSERT_EQ(Out.size(), 50000u);
    for (uint64_t I = 0; I != Out.size(); ++I)
      ASSERT_EQ(Out[I], I % Period);
  }
}

} // namespace
