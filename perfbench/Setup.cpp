//===- perfbench/Setup.cpp - Trace generation + reference artifacts ------===//
//
// Part of the ORP reproduction of "Exposing Memory Access Regularities
// Using Object-Relative Memory Profiling" (CGO 2004).
//
//===----------------------------------------------------------------------===//
//
// The benchmark's set-up: every session of a workload runs live, from
// the --seed input, into a ProfileSession while a TraceWriter records
// the same event stream. The trace is what the timed runs replay; the
// live session's artifacts are the reference every timed run's bytes
// must equal. Sessions are set up in parallel child processes (at most
// four, the daemon-mix session count).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "session/ProfileSession.h"
#include "traceio/TraceWriter.h"
#include "workloads/Workload.h"

#include <cstdio>
#include <sys/wait.h>
#include <unistd.h>

using namespace orp;
using namespace orpbench;

namespace {

struct SetupResult {
  uint64_t Events = 0;
  uint64_t TraceBytes = 0;
};

/// Runs one session live; returns false with \p Err on any failure.
bool setupSession(const SessionSpec &S, size_t BlockBytes, uint64_t Seed,
                  const std::string &Dir, SetupResult &R, std::string &Err) {
  auto Workload = workloads::createWorkloadByName(S.Workload);
  if (!Workload) {
    Err = "unknown analogue " + S.Workload;
    return false;
  }
  // The reference is always the serial pipeline, so threaded timed runs
  // are checked against an independent schedule.
  session::SessionConfig Config;
  Config.EnableWhomp = S.Whomp;
  Config.EnableLeap = S.Leap;
  session::ProfileSession Profile(S.Workload, Config);
  traceio::TraceWriter Recorder(artifactPath(Dir, S.Workload, "orpt"),
                                Profile.core().registry(), Config.Policy,
                                Config.Seed, BlockBytes);
  if (!Recorder.ok()) {
    Err = Recorder.error();
    return false;
  }
  Profile.core().addRawSink(&Recorder);
  workloads::WorkloadConfig WC;
  WC.Scale = S.Scale;
  WC.Seed = Seed;
  (void)Workload->run(Profile.core().memory(), Profile.core().registry(), WC);
  session::SessionArtifacts A = Profile.finalize();
  if (!Recorder.close()) {
    Err = Recorder.error();
    return false;
  }
  if (A.Failed) {
    Err = A.Error;
    return false;
  }
  if (!writeFile(artifactPath(Dir, S.Workload, "omsg"), A.Omsg) ||
      !writeFile(artifactPath(Dir, S.Workload, "leap"), A.Leap)) {
    Err = "cannot write reference artifacts in " + Dir;
    return false;
  }
  R.Events = Recorder.eventsWritten();
  R.TraceBytes = Recorder.bytesWritten();
  return true;
}

} // namespace

int orpbench::runSetup(const WorkloadSpec &W, uint64_t Seed,
                       const std::string &Dir) {
  struct Child {
    pid_t Pid;
    int Fd;
  };
  std::vector<Child> Children;
  Outcome O;
  for (const SessionSpec &S : W.Sessions) {
    int P[2];
    if (pipe(P) != 0) {
      O.check(false, "pipe failed");
      continue;
    }
    std::fflush(stdout);
    pid_t Pid = fork();
    if (Pid == 0) {
      close(P[0]);
      SetupResult R;
      std::string Err;
      bool Ok = setupSession(S, W.BlockBytes, Seed, Dir, R, Err);
      if (!Ok)
        std::fprintf(stderr, "orpbench setup %s: %s\n", S.Workload.c_str(),
                     Err.c_str());
      else if (write(P[1], &R, sizeof(R)) != sizeof(R))
        Ok = false;
      _exit(Ok ? 0 : 1);
    }
    close(P[1]);
    if (Pid < 0) {
      close(P[0]);
      O.check(false, "fork failed");
      continue;
    }
    Children.push_back({Pid, P[0]});
  }
  SetupResult Total;
  for (const Child &C : Children) {
    SetupResult R;
    bool Got = read(C.Fd, &R, sizeof(R)) == sizeof(R);
    close(C.Fd);
    int Status = 0;
    bool Exited = waitpid(C.Pid, &Status, 0) == C.Pid && WIFEXITED(Status) &&
                  WEXITSTATUS(Status) == 0;
    O.check(Got && Exited, "set-up of a session failed");
    Total.Events += R.Events;
    Total.TraceBytes += R.TraceBytes;
  }
  JsonObject J;
  J.add("events", Total.Events);
  J.add("trace_bytes", Total.TraceBytes);
  O.addTo(J);
  std::printf("%s\n", J.str().c_str());
  return O.Failed ? 1 : 0;
}
