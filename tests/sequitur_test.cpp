//===- tests/sequitur_test.cpp - Sequitur compression unit tests ---------===//

#include "SequiturTestUtil.h"
#include "sequitur/GrammarImage.h"
#include "sequitur/Sequitur.h"
#include "support/Random.h"
#include "support/VarInt.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace orp;
using namespace orp::sequitur;
using namespace orp::seqtest;

namespace {

std::vector<uint64_t> fromString(const std::string &S) {
  std::vector<uint64_t> V;
  for (char C : S)
    V.push_back(static_cast<uint64_t>(C));
  return V;
}

/// Builds a grammar over \p Input and checks losslessness + invariants.
void roundTrip(const std::vector<uint64_t> &Input, const char *Label) {
  SequiturGrammar G;
  G.appendAll(Input);
  EXPECT_EQ(G.inputLength(), Input.size()) << Label;
  ASSERT_TRUE(healthy(G)) << Label;
  EXPECT_EQ(G.expandAll(), Input) << Label;
  EXPECT_EQ(expandImage(G.serialize()), Input) << Label;
}

} // namespace

TEST(SequiturTest, EmptyGrammar) {
  SequiturGrammar G;
  EXPECT_EQ(G.inputLength(), 0u);
  EXPECT_EQ(G.numRules(), 1u); // The start rule.
  EXPECT_TRUE(G.expandAll().empty());
  EXPECT_TRUE(healthy(G));
}

TEST(SequiturTest, SingleSymbol) { roundTrip({42}, "single"); }

TEST(SequiturTest, PaperExampleAbcbcabcbc) {
  // Section 3.1: "abcbcabcbc" compresses to S->AA; A->aBB; B->bc.
  SequiturGrammar G;
  G.appendAll(fromString("abcbcabcbc"));
  EXPECT_TRUE(healthy(G));
  EXPECT_EQ(G.expandAll(), fromString("abcbcabcbc"));
  // 3 rules: start, A, B.
  EXPECT_EQ(G.numRules(), 3u);
  // Body symbols: S=AA (2) + A=aBB (3) + B=bc (2) = 7.
  EXPECT_EQ(G.totalBodySymbols(), 7u);
}

TEST(SequiturTest, RepeatedPairFormsRule) {
  SequiturGrammar G;
  G.appendAll(fromString("ababab"));
  EXPECT_TRUE(healthy(G));
  EXPECT_EQ(G.expandAll(), fromString("ababab"));
  EXPECT_GE(G.numRules(), 2u);
}

TEST(SequiturTest, OverlappingDigramsDoNotSubstitute) {
  // "aaa" contains digram "aa" twice, but overlapping; no rule may form
  // and expansion must still be exact.
  roundTrip(fromString("aaa"), "aaa");
  roundTrip(fromString("aaaa"), "aaaa");
  roundTrip(fromString("aaaaaaaaaaaaaaaa"), "a^16");
}

TEST(SequiturTest, AllDistinctSymbols) {
  std::vector<uint64_t> V;
  for (uint64_t I = 0; I != 500; ++I)
    V.push_back(I * 977 + 13);
  roundTrip(V, "distinct");
  SequiturGrammar G;
  G.appendAll(V);
  EXPECT_EQ(G.numRules(), 1u) << "no repetition, no rules";
}

TEST(SequiturTest, PeriodicStreamCompressesWell) {
  std::vector<uint64_t> V;
  for (int Rep = 0; Rep != 128; ++Rep)
    for (uint64_t S : {1, 2, 3, 4, 5, 6, 7, 8})
      V.push_back(S);
  SequiturGrammar G;
  G.appendAll(V);
  EXPECT_TRUE(healthy(G));
  EXPECT_EQ(G.expandAll(), V);
  // 1024 input symbols must collapse to a logarithmic-size grammar.
  EXPECT_LT(G.totalBodySymbols(), 64u);
  EXPECT_LT(G.serializedSizeBytes(), V.size());
}

TEST(SequiturTest, RuleUtilityHolds) {
  // Build a stream whose intermediate rules become useless; the final
  // grammar must never contain single-use rules (the validator covers
  // it, this test just exercises a known trigger pattern).
  roundTrip(fromString("abcdbcabcdbc"), "utility-trigger");
  roundTrip(fromString("xabcabcyabcabcz"), "nested-repeats");
}

TEST(SequiturTest, SerializeIsCompactForRepeats) {
  std::vector<uint64_t> V;
  for (int I = 0; I != 1000; ++I) {
    V.push_back(7);
    V.push_back(9);
  }
  SequiturGrammar G;
  G.appendAll(V);
  EXPECT_LT(G.serializedSizeBytes(), 100u);
}

TEST(SequiturTest, LargeTerminalValues) {
  // Raw addresses use most of the 47-bit space; the tagged encoding must
  // round-trip them.
  std::vector<uint64_t> V;
  for (int I = 0; I != 64; ++I) {
    V.push_back(0x7fff'0000'0000ULL + I * 8);
    V.push_back(0x2000'0000ULL + I * 16);
  }
  roundTrip(V, "large-terminals");
}

TEST(SequiturTest, RuleStatsKeepAll64TerminalBits) {
  // The image's tagged codes cannot carry a terminal of 2^63 or more,
  // but rule statistics come from the live bodies and report it exactly.
  constexpr uint64_t High = 1ULL << 63;
  std::vector<uint64_t> Input = fromString("abcbcabcbc");
  for (uint64_t &V : Input)
    V |= High;
  SequiturGrammar G;
  G.appendAll(Input);
  std::vector<RuleStats> Stats = G.ruleStats(/*PrefixCap=*/3);
  ASSERT_EQ(Stats.size(), 3u);
  EXPECT_EQ(Stats[0].ExpandedLength, 10u);
  EXPECT_EQ(Stats[1].Occurrences, 2u);
  EXPECT_EQ(Stats[1].Prefix,
            (std::vector<uint64_t>{Input[0], Input[1], Input[2]}));
  EXPECT_EQ(Stats[2].Occurrences, 4u);
  EXPECT_EQ(Stats[2].Prefix, (std::vector<uint64_t>{Input[1], Input[2]}));
}

TEST(SequiturTest, SerializeRejectsTerminalsPastTheImageRange) {
  SequiturGrammar G;
  G.append(7);
  G.append(1ULL << 63);
  EXPECT_DEATH(G.serialize(), "does not fit the grammar image");
}

TEST(SequiturTest, DumpShowsRules) {
  SequiturGrammar G;
  G.appendAll(fromString("abcbcabcbc"));
  std::string D = G.dump();
  EXPECT_NE(D.find("R0 ->"), std::string::npos);
  EXPECT_NE(D.find("R1"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Property sweep: random stream families
//===----------------------------------------------------------------------===//

struct StreamSpec {
  const char *Name;
  unsigned Alphabet;
  unsigned Length;
  double RepeatBias; ///< Probability of re-emitting a recent phrase.
};

class SequiturPropertyTest : public ::testing::TestWithParam<StreamSpec> {};

TEST_P(SequiturPropertyTest, LosslessOnRandomStreams) {
  const StreamSpec &Spec = GetParam();
  for (uint64_t Seed = 1; Seed <= 5; ++Seed) {
    Rng R(Seed * 1000003);
    std::vector<uint64_t> V;
    std::vector<size_t> PhraseStarts = {0};
    while (V.size() < Spec.Length) {
      if (!V.empty() && R.nextBool(Spec.RepeatBias)) {
        // Re-emit a previously generated phrase.
        size_t Start = PhraseStarts[R.nextBelow(PhraseStarts.size())];
        size_t Len = 1 + R.nextBelow(12);
        for (size_t I = Start; I < V.size() && Len--; ++I)
          V.push_back(V[I]);
      } else {
        PhraseStarts.push_back(V.size());
        V.push_back(R.nextBelow(Spec.Alphabet));
      }
    }
    SequiturGrammar G;
    G.appendAll(V);
    ASSERT_TRUE(healthy(G))
        << Spec.Name << " seed " << Seed << " violates invariants";
    ASSERT_EQ(G.expandAll(), V)
        << Spec.Name << " seed " << Seed << " is not lossless";
    ASSERT_EQ(expandImage(G.serialize()), V)
        << Spec.Name << " seed " << Seed << " serialization broke";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Streams, SequiturPropertyTest,
    ::testing::Values(StreamSpec{"binary_random", 2, 2000, 0.0},
                      StreamSpec{"small_alpha_random", 5, 2000, 0.0},
                      StreamSpec{"wide_alpha_random", 1000, 2000, 0.0},
                      StreamSpec{"binary_repeats", 2, 3000, 0.5},
                      StreamSpec{"phrase_repeats", 16, 3000, 0.7},
                      StreamSpec{"heavy_repeats", 4, 4000, 0.9}),
    [](const auto &Info) { return Info.param.Name; });

TEST(SequiturTest, IncrementalAppendMatchesBatch) {
  Rng R(77);
  std::vector<uint64_t> V;
  for (int I = 0; I != 1500; ++I)
    V.push_back(R.nextBelow(6));
  SequiturGrammar G;
  for (size_t I = 0; I != V.size(); ++I) {
    G.append(V[I]);
    if (I % 250 == 0) {
      ASSERT_TRUE(healthy(G)) << "at prefix " << I;
      std::vector<uint64_t> Prefix(V.begin(), V.begin() + I + 1);
      ASSERT_EQ(G.expandAll(), Prefix) << "at prefix " << I;
    }
  }
  EXPECT_EQ(G.expandAll(), V);
}

namespace {

/// ULEB128-encodes \p Values back to back: a hand-built grammar image.
std::vector<uint8_t> image(std::initializer_list<uint64_t> Values) {
  std::vector<uint8_t> Out;
  for (uint64_t V : Values)
    encodeULEB128(V, Out);
  return Out;
}

/// Symbol codes of the image format.
constexpr uint64_t t(uint64_t Terminal) { return Terminal << 1; }
constexpr uint64_t r(uint64_t Rule) { return Rule << 1 | 1; }

/// Parses \p Bytes, which must be rejected, and returns the diagnostic.
std::string rejection(const std::vector<uint8_t> &Bytes,
                      uint64_t MaxTerminals =
                          GrammarImage::kDefaultMaxExpandedTerminals) {
  GrammarImage G;
  std::string Err;
  EXPECT_FALSE(GrammarImage::parse(Bytes, G, Err, MaxTerminals));
  return Err;
}

} // namespace

TEST(GrammarImageTest, RejectsEachMalformedShape) {
  EXPECT_EQ(rejection({}), "sequitur image: rule count: truncated varint");
  EXPECT_EQ(rejection({0x81, 0x00}),
            "sequitur image: rule count: overlong varint");
  EXPECT_EQ(rejection(image({1})),
            "sequitur image: input length: truncated varint");
  EXPECT_EQ(rejection(image({0, 0})), "sequitur image: no rules");
  EXPECT_EQ(rejection(image({5, 0, 0})),
            "sequitur image: rule count: 5 exceeds remaining bytes");
  EXPECT_EQ(rejection(image({1, (1ULL << 26) + 1, 0})),
            "sequitur image: declared expansion of 67108865 terminals "
            "exceeds the cap of 67108864");
  EXPECT_EQ(rejection(image({1, 2, 2, t(7), t(8)}), /*MaxTerminals=*/1),
            "sequitur image: declared expansion of 2 terminals exceeds the "
            "cap of 1");
  EXPECT_EQ(rejection(image({1, 0, 9, t(1)})),
            "sequitur image: body length: 9 exceeds remaining bytes");
  EXPECT_EQ(rejection(image({1, 2, 2, t(1)})),
            "sequitur image: symbol: truncated varint");
  EXPECT_EQ(rejection(image({1, 1, 1, t(1), 0})),
            "sequitur image: trailing bytes");
  EXPECT_EQ(rejection(image({1, 2, 2, r(5), t(1)})),
            "sequitur image: rule reference out of range");
  EXPECT_EQ(rejection(image({2, 2, 2, r(1), r(1), 1, t(4)})),
            "sequitur image: rule 1 has fewer than two symbols");
  EXPECT_EQ(rejection(image({2, 2, 2, t(1), t(2), 2, t(3), t(4)})),
            "sequitur image: rule 1 is unreachable");
  // R1 -> R2 a and R2 -> R1 b close a cycle below the start rule.
  EXPECT_EQ(rejection(image({3, 4, 1, r(1), 2, r(2), t(1), 2, r(1), t(2)})),
            "sequitur image: cyclic rule references");
  // A rule that uses the start rule puts it on a cycle too.
  EXPECT_EQ(rejection(image({2, 2, 1, r(1), 2, r(0), t(1)})),
            "sequitur image: cyclic rule references");
  EXPECT_EQ(rejection(image({1, 3, 2, t(1), t(2)})),
            "sequitur image: start rule expands to 2 terminals, header "
            "declares 3");
  EXPECT_EQ(rejection(image({1, 1, 2, t(1), t(2)})),
            "sequitur image: rule 0 expands past the declared length of 1");
}

TEST(GrammarImageTest, DegenerateNestingIsRejectedWithoutExpanding) {
  // 80 nested doublings expand to 2^81 terminals: one pass over the
  // rules stops at the first that outgrows the declared 4, long before a
  // length could wrap, and nothing is expanded.
  std::vector<uint8_t> Bytes = image({81, 4, 2, r(1), r(1)});
  for (uint64_t R = 1; R != 80; ++R)
    for (uint64_t V : {uint64_t{2}, r(R + 1), r(R + 1)})
      encodeULEB128(V, Bytes);
  for (uint64_t V : {uint64_t{2}, t(1), t(2)})
    encodeULEB128(V, Bytes);
  EXPECT_EQ(rejection(Bytes),
            "sequitur image: rule 78 expands past the declared length of 4");
}

TEST(GrammarImageTest, ViewsThePaperExample) {
  // "abcbcabcbc" -> S -> A A ; A -> a B B ; B -> b c.
  SequiturGrammar G;
  G.appendAll(fromString("abcbcabcbc"));
  GrammarImage Image;
  std::string Err;
  ASSERT_TRUE(GrammarImage::parse(G.serialize(), Image, Err)) << Err;
  EXPECT_EQ(Image.expandedLength(), 10u);
  EXPECT_EQ(Image.numRules(), 3u);
  EXPECT_EQ(Image.totalBodySymbols(), 7u);
  std::vector<RuleStats> Stats = Image.ruleStats(/*PrefixCap=*/3);
  ASSERT_EQ(Stats.size(), 3u);
  EXPECT_EQ(Stats[1].ExpandedLength, 5u);
  EXPECT_EQ(Stats[1].Occurrences, 2u);
  EXPECT_EQ(Stats[1].Prefix, fromString("abc"));
  EXPECT_EQ(Stats[2].BodyLength, 2u);
  EXPECT_EQ(Stats[2].Occurrences, 4u);
  EXPECT_EQ(Stats[2].Prefix, fromString("bc"));
  EXPECT_EQ(expandImage(G.serialize()), fromString("abcbcabcbc"));
}

TEST(GrammarImageTest, EmptyGrammarExpandsToNothing) {
  SequiturGrammar G;
  GrammarImage Image;
  std::string Err;
  ASSERT_TRUE(GrammarImage::parse(G.serialize(), Image, Err)) << Err;
  EXPECT_EQ(Image.expandedLength(), 0u);
  uint64_t V = 0;
  EXPECT_FALSE(GrammarImage::Expander(Image).next(V));
}
