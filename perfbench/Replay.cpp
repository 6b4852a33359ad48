//===- perfbench/Replay.cpp - One untraced trace->artifact replay --------===//
//
// Part of the ORP reproduction of "Exposing Memory Access Regularities
// Using Object-Relative Memory Profiling" (CGO 2004).
//
//===----------------------------------------------------------------------===//
//
// Replays a set-up trace through session::ProfileSession::replayFrom +
// finalize, exactly as `orp-trace stats --threads=N` does, timed from
// the first block in to the last artifact byte out. Reports wall time,
// the CPU this process spent in that interval, its peak RSS, the
// per-block ingest latencies (the gap between consecutive block-done
// callbacks), and whether the artifacts equal the set-up reference.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "session/ProfileSession.h"

#include <cstdio>

using namespace orp;
using namespace orpbench;

int orpbench::runReplay(const WorkloadSpec &W, const std::string &Dir) {
  const SessionSpec &S = W.Sessions.front();
  Outcome O;
  traceio::TraceReader Reader;
  std::vector<uint8_t> RefOmsg, RefLeap;
  if (!Reader.open(artifactPath(Dir, S.Workload, "orpt")) ||
      !readFile(artifactPath(Dir, S.Workload, "omsg"), RefOmsg) ||
      !readFile(artifactPath(Dir, S.Workload, "leap"), RefLeap)) {
    std::fprintf(stderr, "orpbench replay: missing set-up output in %s: %s\n",
                 Dir.c_str(), Reader.error().c_str());
    return 1;
  }
  session::SessionConfig Config;
  Config.Policy = static_cast<memsim::AllocPolicy>(Reader.info().AllocPolicy);
  Config.Seed = Reader.info().Seed;
  Config.EnableWhomp = S.Whomp;
  Config.EnableLeap = S.Leap;
  Config.ProfilerThreads = S.Threads;

  const size_t NumBlocks = Reader.numEventBlocks();
  std::vector<double> RttMs;
  RttMs.reserve(NumBlocks);

  double Cpu0 = processCpuSeconds();
  double T0 = nowSeconds();
  double Last = T0;
  session::ProfileSession Profile(S.Workload, Config);
  bool Ok = Profile.replayFrom(Reader, S.Threads, 0,
                               ~static_cast<uint64_t>(0), [&](uint64_t) {
                                 double T = nowSeconds();
                                 RttMs.push_back((T - Last) * 1e3);
                                 Last = T;
                               });
  session::SessionArtifacts A = Profile.finalize();
  double T1 = nowSeconds();
  double Cpu1 = processCpuSeconds();

  O.Attempted += NumBlocks;
  O.Failed += NumBlocks - RttMs.size();
  O.check(Ok && !A.Failed, "replay failed: " + A.Error);
  O.check(A.Omsg == RefOmsg && A.Leap == RefLeap,
          "artifacts differ from the set-up reference");

  JsonObject J;
  J.add("wall_s", T1 - T0);
  J.add("events", A.Events);
  J.add("cpu_s", Cpu1 - Cpu0);
  J.add("rss_mb", peakRssMiB());
  J.add("profile_bytes", static_cast<uint64_t>(A.Omsg.size() + A.Leap.size()));
  J.add("rtt_ms", RttMs);
  O.addTo(J);
  std::printf("%s\n", J.str().c_str());
  return 0;
}
