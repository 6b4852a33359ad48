//===- perfbench/Spans.cpp - In-memory span recorder ---------------------===//
//
// Part of the ORP reproduction of "Exposing Memory Access Regularities
// Using Object-Relative Memory Profiling" (CGO 2004).
//
//===----------------------------------------------------------------------===//

#include "Spans.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>

using namespace orpbench;

namespace {

uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// One thread's records. Owned by the global list, so the records
/// outlive the worker threads that wrote them.
struct ThreadSpans {
  /// Merge index of one record: its distinct child names so far.
  struct Children {
    static constexpr unsigned kMax = 8;
    unsigned N = 0;
    SpanName Name[kMax];
    int32_t Index[kMax];
  };
  struct Open {
    int32_t Record;
    uint64_t StartNs;
  };
  std::vector<SpanRecord> Records;
  std::vector<Children> Kids; ///< Parallel to Records.
  std::vector<Open> Stack;
};

std::mutex ThreadsMu;
std::vector<std::unique_ptr<ThreadSpans>> Threads; // Guarded by ThreadsMu.
thread_local ThreadSpans *Mine = nullptr;

ThreadSpans &mine() {
  if (!Mine) {
    auto T = std::make_unique<ThreadSpans>();
    T->Records.reserve(1 << 12);
    T->Kids.reserve(1 << 12);
    std::lock_guard<std::mutex> Lock(ThreadsMu);
    Mine = T.get();
    Threads.push_back(std::move(T));
  }
  return *Mine;
}

} // namespace

const char *orpbench::spanNameString(SpanName N) {
  switch (N) {
  case SpanName::SessionInject:
    return "session.inject";
  case SpanName::TraceioDecode:
    return "traceio.decode";
  case SpanName::OmcTranslate:
    return "omc.translate";
  case SpanName::WhompConsume:
    return "whomp.consume";
  case SpanName::SequiturInstr:
    return "sequitur.instr";
  case SpanName::SequiturGroup:
    return "sequitur.group";
  case SpanName::SequiturObject:
    return "sequitur.object";
  case SpanName::SequiturOffset:
    return "sequitur.offset";
  case SpanName::BenchCapture:
    return "bench.capture";
  case SpanName::LeapConsume:
    return "leap.consume";
  case SpanName::SessionFinalize:
    return "session.finalize";
  case SpanName::WhompFinish:
    return "whomp.finish";
  case SpanName::LeapFinish:
    return "leap.finish";
  case SpanName::WhompSerialize:
    return "whomp.serialize";
  case SpanName::LeapSerialize:
    return "leap.serialize";
  case SpanName::SessionClient:
    return "session.client";
  case SpanName::SessionOpen:
    return "session.open";
  case SpanName::SessionEvents:
    return "session.events";
  case SpanName::SessionSnapshot:
    return "session.snapshot";
  case SpanName::SessionClose:
    return "session.close";
  case SpanName::Count:
    break;
  }
  return "?";
}

Span::Span(SpanName N) {
  ThreadSpans &T = mine();
  int32_t Parent = T.Stack.empty() ? -1 : T.Stack.back().Record;
  int32_t Rec = -1;
  if (Parent >= 0) {
    const ThreadSpans::Children &K = T.Kids[Parent];
    for (unsigned I = 0; I != K.N; ++I)
      if (K.Name[I] == N)
        Rec = K.Index[I];
  }
  if (Rec < 0) {
    Rec = static_cast<int32_t>(T.Records.size());
    SpanRecord R;
    R.Name = N;
    R.Parent = Parent;
    T.Records.push_back(R);
    T.Kids.emplace_back();
    if (Parent >= 0) {
      ThreadSpans::Children &K = T.Kids[Parent];
      if (K.N != ThreadSpans::Children::kMax) {
        K.Name[K.N] = N;
        K.Index[K.N] = Rec;
        ++K.N;
      }
    }
  }
  T.Stack.push_back({Rec, nowNs()});
}

Span::~Span() {
  uint64_t End = nowNs();
  ThreadSpans &T = *Mine;
  ThreadSpans::Open O = T.Stack.back();
  T.Stack.pop_back();
  SpanRecord &R = T.Records[O.Record];
  if (R.Count == 0)
    R.FirstStartNs = O.StartNs;
  R.LastEndNs = End;
  R.TotalNs += End - O.StartNs;
  ++R.Count;
}

SpanTotals orpbench::spanTotals(bool CallerOnly) {
  SpanTotals Out;
  int64_t Self[static_cast<size_t>(SpanName::Count)] = {};
  auto Add = [&](const ThreadSpans &T) {
    for (const SpanRecord &R : T.Records) {
      size_t N = static_cast<size_t>(R.Name);
      Out.TotalNs[N] += R.TotalNs;
      Out.Count[N] += R.Count;
      Self[N] += static_cast<int64_t>(R.TotalNs);
      if (R.Parent >= 0)
        Self[static_cast<size_t>(T.Records[R.Parent].Name)] -=
            static_cast<int64_t>(R.TotalNs);
    }
  };
  if (CallerOnly) {
    Add(mine());
  } else {
    std::lock_guard<std::mutex> Lock(ThreadsMu);
    for (const auto &T : Threads)
      Add(*T);
  }
  for (size_t N = 0; N != static_cast<size_t>(SpanName::Count); ++N)
    Out.SelfNs[N] = static_cast<uint64_t>(std::max<int64_t>(Self[N], 0));
  return Out;
}

bool orpbench::writeSpans(const std::string &Path) {
  std::lock_guard<std::mutex> Lock(ThreadsMu);
  uint64_t Epoch = ~static_cast<uint64_t>(0);
  for (const auto &T : Threads)
    for (const SpanRecord &R : T->Records)
      if (R.Count)
        Epoch = std::min(Epoch, R.FirstStartNs);
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "thread\trecord\tparent\tname\tfirst_start_ns\t"
                  "last_end_ns\ttotal_ns\tcount\n");
  for (size_t Tid = 0; Tid != Threads.size(); ++Tid) {
    const std::vector<SpanRecord> &Records = Threads[Tid]->Records;
    for (size_t I = 0; I != Records.size(); ++I) {
      const SpanRecord &R = Records[I];
      std::fprintf(F, "%zu\t%zu\t%d\t%s\t%llu\t%llu\t%llu\t%llu\n", Tid, I,
                   R.Parent, spanNameString(R.Name),
                   static_cast<unsigned long long>(R.FirstStartNs - Epoch),
                   static_cast<unsigned long long>(R.LastEndNs - Epoch),
                   static_cast<unsigned long long>(R.TotalNs),
                   static_cast<unsigned long long>(R.Count));
    }
  }
  return std::fclose(F) == 0;
}
