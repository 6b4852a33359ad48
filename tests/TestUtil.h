//===- tests/TestUtil.h - Shared test helpers -------------------*- C++ -*-===//
//
// Part of the ORP reproduction of "Exposing Memory Access Regularities
// Using Object-Relative Memory Profiling" (CGO 2004).
//
//===----------------------------------------------------------------------===//

#ifndef ORP_TESTS_TESTUTIL_H
#define ORP_TESTS_TESTUTIL_H

#include "trace/Events.h"

#include <gtest/gtest.h>

#include <string>

#include <unistd.h>

namespace orp {
namespace test {

/// A scratch file path under the test temp directory, unique to this
/// process: two test binaries (say, of two build trees) running at once
/// never share a file.
inline std::string tempPath(const std::string &Name) {
  return ::testing::TempDir() + "orp_" + std::to_string(::getpid()) + "_" +
         Name;
}

/// Hands \p Event to \p Sink as a one-event batch.
inline void deliver(trace::TraceSink &Sink, const trace::AccessEvent &Event) {
  Sink.onAccessBatch(std::span<const trace::AccessEvent>(&Event, 1));
}

} // namespace test
} // namespace orp

#endif // ORP_TESTS_TESTUTIL_H
