//===- perfbench/DaemonMix.cpp - Concurrent sessions on orp-traced -------===//
//
// Part of the ORP reproduction of "Exposing Memory Access Regularities
// Using Object-Relative Memory Profiling" (CGO 2004).
//
//===----------------------------------------------------------------------===//
//
// Starts an orp-traced process (2 shards) in the work directory and
// drives every session of the workload through session::Client, one
// connection and one client thread per session, closed loop: each
// EVENTS frame waits for its ack before the next is sent. Timed from
// the first OPEN to the last CLOSE reply. The daemon's CPU, per-thread
// CPU and peak RSS come from /proc, sampled around that interval; each
// session's CLOSE artifacts are compared with the set-up reference.
//
// With --spans the client threads record open/events/close spans, a few
// whole-registry SNAPSHOTs follow the last CLOSE, and the per-layer
// session metrics are added to the output.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Spans.h"

#include "session/Client.h"

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <dirent.h>
#include <fcntl.h>
#include <latch>
#include <memory>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

using namespace orp;
using namespace orpbench;

namespace {

const char *const kSocket = "orpbench.sock";
constexpr int kSnapshots = 5; // Whole-registry SNAPSHOTs of a traced run.

/// utime+stime of /proc/<Pid>[/task/<Tid>]/stat, in clock ticks.
uint64_t cpuTicks(const std::string &StatPath) {
  std::vector<uint8_t> Bytes;
  if (!readFile(StatPath, Bytes))
    return 0;
  std::string Text(Bytes.begin(), Bytes.end());
  size_t Pos = Text.rfind(')');
  if (Pos == std::string::npos)
    return 0;
  // Fields after the command name start at field 3 (state); utime and
  // stime are fields 14 and 15.
  unsigned long long UTime = 0, STime = 0;
  if (std::sscanf(Text.c_str() + Pos + 1,
                  " %*c %*d %*d %*d %*d %*d %*u %*u %*u %*u %*u %llu %llu",
                  &UTime, &STime) != 2)
    return 0;
  return UTime + STime;
}

/// CPU ticks of every thread of \p Pid except its main thread.
uint64_t workerTicks(pid_t Pid) {
  std::string Base = "/proc/" + std::to_string(Pid) + "/task";
  uint64_t Sum = 0;
  DIR *D = opendir(Base.c_str());
  if (!D)
    return 0;
  while (dirent *E = readdir(D)) {
    if (E->d_name[0] == '.' || std::to_string(Pid) == E->d_name)
      continue;
    Sum += cpuTicks(Base + "/" + E->d_name + "/stat");
  }
  closedir(D);
  return Sum;
}

/// VmHWM of \p Pid, in MiB.
double peakRssOf(pid_t Pid) {
  std::vector<uint8_t> Bytes;
  if (!readFile("/proc/" + std::to_string(Pid) + "/status", Bytes))
    return 0;
  std::string Text(Bytes.begin(), Bytes.end());
  size_t Pos = Text.find("VmHWM:");
  if (Pos == std::string::npos)
    return 0;
  return std::strtod(Text.c_str() + Pos + 6, nullptr) / 1024.0; // kB.
}

/// Everything one client thread needs and produces.
struct SessionRun {
  const SessionSpec *Spec = nullptr;
  traceio::TraceReader Reader;
  std::vector<uint8_t> RefOmsg, RefLeap;
  session::Client Client;
  // Results.
  std::vector<double> RttMs;
  double EndS = 0;
  uint64_t Events = 0, BlocksOk = 0, ProfileBytes = 0;
  bool Opened = false, Closed = false, Match = false;
  std::string Err;
};

void driveSession(SessionRun &R, std::latch &Start, bool Traced) {
  const size_t NumBlocks = R.Reader.numEventBlocks();
  R.RttMs.reserve(NumBlocks);
  Start.wait();
  std::unique_ptr<Span> Life;
  if (Traced)
    Life = std::make_unique<Span>(SpanName::SessionClient);
  auto Step = [Traced](SpanName N) {
    return Traced ? std::make_unique<Span>(N) : nullptr;
  };
  session::OpenRequest Req;
  Req.Name = R.Spec->Workload;
  Req.Config.Policy =
      static_cast<memsim::AllocPolicy>(R.Reader.info().AllocPolicy);
  Req.Config.Seed = R.Reader.info().Seed;
  Req.Config.EnableWhomp = R.Spec->Whomp;
  Req.Config.EnableLeap = R.Spec->Leap;
  Req.Instrs = R.Reader.instructions();
  Req.Sites = R.Reader.allocSites();
  uint64_t Id = 0;
  {
    auto S = Step(SpanName::SessionOpen);
    R.Opened = R.Client.openSession(Req, Id, R.Err);
  }
  if (!R.Opened)
    return;
  const uint8_t Version = R.Reader.info().Version;
  for (size_t B = 0; B != NumBlocks; ++B) {
    traceio::TraceReader::RawBlock Raw = R.Reader.rawBlock(B);
    double T0 = nowSeconds();
    bool Ok;
    {
      auto S = Step(SpanName::SessionEvents);
      Ok = R.Client.submitBlock(Id, Raw, Version, R.Err);
    }
    R.RttMs.push_back((nowSeconds() - T0) * 1e3);
    if (!Ok)
      break; // The session has failed or the connection is gone.
    ++R.BlocksOk;
  }
  session::CloseSummary Summary;
  {
    auto S = Step(SpanName::SessionClose);
    std::string CloseErr;
    R.Closed = R.Client.closeSession(Id, Summary, CloseErr) &&
               !Summary.Failed;
    if (!R.Closed && R.Err.empty())
      R.Err = CloseErr.empty() ? Summary.Error : CloseErr;
  }
  R.EndS = nowSeconds();
  R.Events = Summary.Events;
  R.ProfileBytes = Summary.Omsg.size() + Summary.Leap.size();
  R.Match = R.Closed && Summary.Omsg == R.RefOmsg && Summary.Leap == R.RefLeap;
}

double meanMs(const SpanTotals &T, SpanName N) {
  return T.count(N) ? T.total(N) / 1e6 / static_cast<double>(T.count(N)) : 0;
}

} // namespace

int orpbench::runDaemonMix(const WorkloadSpec &W, const std::string &Dir,
                           const std::string &DaemonBin, bool Traced,
                           const std::string &SpansPath) {
  // Socket paths are short-limited; work relative to the directory.
  if (chdir(Dir.c_str()) != 0) {
    std::fprintf(stderr, "orpbench daemon: cannot enter %s\n", Dir.c_str());
    return 1;
  }
  std::vector<std::unique_ptr<SessionRun>> Runs;
  for (const SessionSpec &S : W.Sessions) {
    auto R = std::make_unique<SessionRun>();
    R->Spec = &S;
    if (!R->Reader.open(artifactPath(".", S.Workload, "orpt")) ||
        !readFile(artifactPath(".", S.Workload, "omsg"), R->RefOmsg) ||
        !readFile(artifactPath(".", S.Workload, "leap"), R->RefLeap)) {
      std::fprintf(stderr, "orpbench daemon: missing set-up output for %s\n",
                   S.Workload.c_str());
      return 1;
    }
    Runs.push_back(std::move(R));
  }

  unlink(kSocket);
  std::fflush(stdout);
  pid_t Daemon = fork();
  if (Daemon == 0) {
    // Never outlive the benchmark, even if it is killed.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    int Log = open("daemon.log", O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (Log >= 0) {
      dup2(Log, STDOUT_FILENO);
      dup2(Log, STDERR_FILENO);
      close(Log);
    }
    std::string Socket = std::string("--socket=") + kSocket;
    std::string Shards = "--threads=" + std::to_string(W.DaemonShards);
    execl(DaemonBin.c_str(), DaemonBin.c_str(), Socket.c_str(),
          Shards.c_str(), static_cast<char *>(nullptr));
    _exit(127);
  }
  if (Daemon < 0) {
    std::fprintf(stderr, "orpbench daemon: fork failed\n");
    return 1;
  }
  // Returns "" on a clean exit, else how the daemon ended.
  auto StopDaemon = [Daemon]() -> std::string {
    kill(Daemon, SIGTERM);
    int Status = 0;
    waitpid(Daemon, &Status, 0);
    unlink(kSocket);
    if (WIFSIGNALED(Status) && WTERMSIG(Status) != SIGTERM)
      return "killed by signal " + std::to_string(WTERMSIG(Status));
    if (WIFEXITED(Status) && WEXITSTATUS(Status) != 0)
      return "exit status " + std::to_string(WEXITSTATUS(Status));
    return "";
  };

  // Connect every client; the daemon may still be binding its socket.
  std::string Err;
  for (auto &R : Runs) {
    bool Ok = false;
    for (int Try = 0; Try != 1000 && !Ok; ++Try) {
      Ok = R->Client.connect(kSocket, Err);
      if (!Ok)
        usleep(10000);
    }
    if (!Ok) {
      std::fprintf(stderr, "orpbench daemon: %s\n", Err.c_str());
      StopDaemon();
      return 1;
    }
  }

  const std::string Proc = "/proc/" + std::to_string(Daemon) + "/stat";
  const double Tick = static_cast<double>(sysconf(_SC_CLK_TCK));
  std::latch Start(1);
  std::vector<std::thread> Clients;
  for (auto &R : Runs)
    Clients.emplace_back(driveSession, std::ref(*R), std::ref(Start), Traced);
  uint64_t Cpu0 = cpuTicks(Proc), Workers0 = workerTicks(Daemon);
  double T0 = nowSeconds();
  Start.count_down();
  for (std::thread &T : Clients)
    T.join();
  double T1 = T0;
  for (auto &R : Runs)
    T1 = std::max(T1, R->EndS);
  uint64_t Cpu1 = cpuTicks(Proc), Workers1 = workerTicks(Daemon);
  double Rss = peakRssOf(Daemon);
  // Whole-registry snapshots, once every session has closed: a SNAPSHOT
  // served while shards are still processing blocks crashes orp-traced
  // (README.md, "Findings worth a later change").
  bool SnapshotsOk = true;
  if (Traced) {
    for (int I = 0; I != kSnapshots; ++I) {
      Span S(SpanName::SessionSnapshot);
      std::string Text;
      SnapshotsOk &= Runs.front()->Client.snapshot(/*Format=*/1, "", Text, Err);
    }
  }
  for (auto &R : Runs)
    R->Client.disconnect();
  std::string DaemonEnd = StopDaemon();

  Outcome O;
  // First, so that a crash is the reported error, not its symptoms.
  O.check(DaemonEnd.empty(), "orp-traced did not shut down cleanly: " +
                                 DaemonEnd);
  if (Traced)
    O.check(SnapshotsOk, "SNAPSHOT failed: " + Err);
  std::vector<double> RttMs;
  uint64_t Events = 0, ProfileBytes = 0;
  for (auto &R : Runs) {
    const std::string &Name = R->Spec->Workload;
    size_t NumBlocks = R->Reader.numEventBlocks();
    O.check(R->Opened, Name + ": OPEN failed: " + R->Err);
    O.Attempted += NumBlocks;
    O.Failed += NumBlocks - R->BlocksOk;
    if (R->Opened && R->BlocksOk != NumBlocks && O.FirstError.empty())
      O.FirstError = Name + ": EVENTS refused: " + R->Err;
    O.check(R->Closed, Name + ": CLOSE failed: " + R->Err);
    O.check(R->Match, Name + ": CLOSE artifacts differ from the reference");
    RttMs.insert(RttMs.end(), R->RttMs.begin(), R->RttMs.end());
    Events += R->Events;
    ProfileBytes += R->ProfileBytes;
  }

  const double Wall = T1 - T0;
  JsonObject J;
  J.add("wall_s", Wall);
  J.add("events", Events);
  J.add("cpu_s", (Cpu1 - Cpu0) / Tick);
  J.add("rss_mb", Rss);
  J.add("profile_bytes", ProfileBytes);
  J.add("rtt_ms", RttMs);
  if (Traced) {
    if (!writeSpans(SpansPath))
      O.check(false, "cannot write " + SpansPath);
    SpanTotals All = spanTotals(/*CallerOnly=*/false);
    J.add("session.open_ms", meanMs(All, SpanName::SessionOpen));
    J.add("session.close_ms", meanMs(All, SpanName::SessionClose));
    J.add("session.snapshot_ms", meanMs(All, SpanName::SessionSnapshot));
    J.add("session.shard_busy_frac",
          (Workers1 - Workers0) / Tick / (Wall * W.DaemonShards));
  }
  O.addTo(J);
  std::printf("%s\n", J.str().c_str());
  return 0;
}
