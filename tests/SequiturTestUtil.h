//===- tests/SequiturTestUtil.h - Shared Sequitur test helpers --*- C++ -*-===//
//
// Part of the ORP reproduction of "Exposing Memory Access Regularities
// Using Object-Relative Memory Profiling" (CGO 2004).
//
//===----------------------------------------------------------------------===//

#ifndef ORP_TESTS_SEQUITURTESTUTIL_H
#define ORP_TESTS_SEQUITURTESTUTIL_H

#include "check/GrammarValidator.h"
#include "sequitur/GrammarImage.h"
#include "sequitur/Sequitur.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

namespace orp {
namespace seqtest {

/// Runs the deep grammar validator; its failures are the message.
inline ::testing::AssertionResult healthy(const sequitur::SequiturGrammar &G) {
  check::CheckReport Report = check::GrammarValidator::validate(G);
  if (Report.ok())
    return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << Report.str();
}

/// Parses \p Image and streams its whole expansion.
inline std::vector<uint64_t> expandImage(const std::vector<uint8_t> &Image) {
  sequitur::GrammarImage G;
  std::string Err;
  EXPECT_TRUE(sequitur::GrammarImage::parse(Image, G, Err)) << Err;
  std::vector<uint64_t> Out;
  uint64_t V = 0;
  for (sequitur::GrammarImage::Expander E(G); E.next(V);)
    Out.push_back(V);
  return Out;
}

} // namespace seqtest
} // namespace orp

#endif // ORP_TESTS_SEQUITURTESTUTIL_H
