//===- perfbench/Spans.h - In-memory span recorder --------------*- C++ -*-===//
//
// Part of the ORP reproduction of "Exposing Memory Access Regularities
// Using Object-Relative Memory Profiling" (CGO 2004).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's span recorder. Spans are opened and closed around
/// the benchmark's calls into each layer and kept in memory, one buffer
/// per thread, until writeSpans() dumps them at exit.
///
/// Root spans (one per event block on the replaying thread, one per
/// chunk on a worker thread) are kept individually. Below a root, the
/// same-named children of one span are merged into a single record that
/// keeps the first start, the last end, the summed duration and the
/// count: per-batch spans (a consumer call, one dimension's appendBatch)
/// would otherwise number in the millions. A layer's self time is its
/// summed duration minus the summed durations of its direct children.
///
//===----------------------------------------------------------------------===//

#ifndef ORPBENCH_SPANS_H
#define ORPBENCH_SPANS_H

#include <cstdint>
#include <string>
#include <vector>

namespace orpbench {

/// Every span the benchmark records, by layer.
enum class SpanName : uint8_t {
  SessionInject,   ///< One event block: decode + injection.
  TraceioDecode,   ///< TraceReader::decodeBlockColumns.
  OmcTranslate,    ///< injectDecodedBlock: MemoryInterface + Cdc + OMC.
  WhompConsume,    ///< WHOMP horizontal decomposition of one batch.
  SequiturInstr,   ///< appendBatch of one dimension's grammar.
  SequiturGroup,
  SequiturObject,
  SequiturOffset,
  BenchCapture,    ///< The benchmark copying dimension symbols aside.
  LeapConsume,     ///< LEAP vertical decomposition + LMAD compression.
  SessionFinalize, ///< Pipeline finish + artifact serialization.
  WhompFinish,
  LeapFinish,
  WhompSerialize,  ///< Grammar images, expansion and the object table.
  LeapSerialize,   ///< LeapProfileData::fromProfiler + serialize.
  SessionClient,   ///< One daemon client connection's whole life.
  SessionOpen,     ///< OPEN round trip.
  SessionEvents,   ///< EVENTS round trip.
  SessionSnapshot, ///< SNAPSHOT round trip.
  SessionClose,    ///< CLOSE round trip (drain + finalize + artifacts).
  Count
};

const char *spanNameString(SpanName N);

/// One (merged) span record of one thread.
struct SpanRecord {
  SpanName Name;
  int32_t Parent = -1; ///< Index of the parent record in the same thread.
  uint64_t FirstStartNs = 0;
  uint64_t LastEndNs = 0;
  uint64_t TotalNs = 0; ///< Summed duration of the merged spans.
  uint64_t Count = 0;
};

/// Opens a span on the calling thread; closes it on destruction.
class Span {
public:
  explicit Span(SpanName N);
  ~Span();
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;
};

/// Per-layer totals over every thread: summed duration, self time and
/// span count, indexed by SpanName.
struct SpanTotals {
  uint64_t TotalNs[static_cast<size_t>(SpanName::Count)] = {};
  uint64_t SelfNs[static_cast<size_t>(SpanName::Count)] = {};
  uint64_t Count[static_cast<size_t>(SpanName::Count)] = {};

  uint64_t total(SpanName N) const { return TotalNs[static_cast<size_t>(N)]; }
  uint64_t self(SpanName N) const { return SelfNs[static_cast<size_t>(N)]; }
  uint64_t count(SpanName N) const { return Count[static_cast<size_t>(N)]; }
};

/// Totals of every thread recorded so far, or with \p CallerOnly of
/// the calling thread alone.
SpanTotals spanTotals(bool CallerOnly);

/// Writes every thread's records as tab-separated lines
/// (thread, record, parent, name, first start, last end, total, count;
/// times in ns since the first span). Returns false on an I/O error.
bool writeSpans(const std::string &Path);

} // namespace orpbench

#endif // ORPBENCH_SPANS_H
