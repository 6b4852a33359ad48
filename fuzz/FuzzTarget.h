//===- fuzz/FuzzTarget.h - Fuzz-target entry points ------------*- C++ -*-===//
//
// Part of the ORP reproduction of "Exposing Memory Access Regularities
// Using Object-Relative Memory Profiling" (CGO 2004).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Contract between a fuzz target translation unit and the two harness
/// modes. Every target defines:
///
///   * LLVMFuzzerTestOneInput — the standard libFuzzer entry point; it
///     must return 0 and must not leak or crash on any input;
///   * orpFuzzSeedInputs — the built-in seed corpus, used by the
///     deterministic fallback driver (FuzzDriver.cpp) when the toolchain
///     has no libFuzzer (GCC-only containers, the fuzz-smoke CI test).
///
/// With -DORP_ENABLE_LIBFUZZER=ON (clang) the target links against
/// -fsanitize=fuzzer and libFuzzer provides main(); otherwise
/// FuzzDriver.cpp provides a main() that replays files given on the
/// command line or mutates the seed corpus with a fixed-seed xorshift
/// PRNG, so smoke runs are reproducible byte for byte.
///
//===----------------------------------------------------------------------===//

#ifndef ORP_FUZZ_FUZZTARGET_H
#define ORP_FUZZ_FUZZTARGET_H

#include "support/ArtifactFrame.h"

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

extern "C" int LLVMFuzzerTestOneInput(const uint8_t *Data, size_t Size);

/// The target's built-in seed corpus for the fallback driver.
std::vector<std::vector<uint8_t>> orpFuzzSeedInputs();

/// Aborts (with a message) when a fuzz-checked property fails, in every
/// build mode — fuzz targets must not rely on NDEBUG-stripped asserts.
#define ORP_FUZZ_REQUIRE(COND, MSG)                                            \
  do {                                                                         \
    if (!(COND))                                                               \
      ::orp::fuzz::fuzzRequireFailed(#COND, (MSG), __FILE__, __LINE__);        \
  } while (false)

namespace orp {
namespace fuzz {

/// Inline so targets work in both harness modes (the fallback driver TU
/// is absent under libFuzzer).
[[noreturn]] inline void fuzzRequireFailed(const char *Cond, const char *Msg,
                                           const char *File, unsigned Line) {
  std::fprintf(stderr,
               "fuzz property violated: %s\n  condition: %s\n  at %s:%u\n",
               Msg, Cond, File, Line);
  std::abort();
}

/// Frames \p Payload under a valid artifact header for \p Magic and
/// \p Version (support/ArtifactFrame.h), so mutations reach the payload
/// decoder instead of stopping at the CRC gate.
inline std::vector<uint8_t> frameArtifact(const char (&Magic)[4],
                                          uint8_t Version,
                                          const uint8_t *Payload,
                                          size_t Size) {
  std::vector<uint8_t> Bytes;
  support::beginFrame(Magic, Version, Bytes);
  Bytes.insert(Bytes.end(), Payload, Payload + Size);
  support::sealFrame(Bytes);
  return Bytes;
}

/// Reads the checked-in trace \p Name from tests/fixtures (seed corpora
/// that need bytes no current writer produces, such as .orpt v1).
/// Aborts when the file is missing, so a seed never vanishes silently.
inline std::vector<uint8_t> readFixture(const char *Name) {
  std::string Path = std::string(ORP_FIXTURE_DIR) + "/" + Name;
  std::ifstream In(Path, std::ios::binary);
  if (!In) {
    std::fprintf(stderr, "fuzz seed: cannot read fixture %s\n", Path.c_str());
    std::abort();
  }
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(In),
                              std::istreambuf_iterator<char>());
}

} // namespace fuzz
} // namespace orp

#endif // ORP_FUZZ_FUZZTARGET_H
