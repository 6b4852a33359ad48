//===- perfbench/main.cpp - orpbench subcommand dispatch ------------------===//
//
// Part of the ORP reproduction of "Exposing Memory Access Regularities
// Using Object-Relative Memory Profiling" (CGO 2004).
//
//===----------------------------------------------------------------------===//
//
// Usage (run.py drives these; each prints one JSON line):
//
//   orpbench setup  --workload=W --seed=N --dir=D [--tiny]
//   orpbench replay --workload=W --dir=D [--tiny]
//   orpbench daemon --workload=W --dir=D --daemon-bin=PATH [--tiny]
//                   [--spans=FILE]
//   orpbench traced --workload=W --dir=D --spans=FILE [--tiny]
//   orpbench info
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "support/Version.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sys/resource.h>
#include <thread>

using namespace orpbench;

namespace orpbench {

bool findWorkload(const std::string &Name, bool Tiny, WorkloadSpec &Out) {
  // Scales are chosen so one untraced run of each workload takes about
  // one to three seconds on a 4-vCPU host; Tiny runs everything at the
  // analogues' smallest size for the smoke test. Block sizes give the
  // serial replays at least 1000 blocks (block_rtt is a percentile over
  // blocks) and the daemon ~1300 round trips; twolf-full-t2 keeps large
  // blocks because smaller ones add decode-ahead hand-offs that cost its
  // threaded pipeline up to 30% of its throughput.
  auto S = [Tiny](uint64_t Scale) { return Tiny ? 1 : Scale; };
  Out = WorkloadSpec();
  Out.Name = Name;
  if (Name == "vpr-full") {
    Out.BlockBytes = 4 * 1024;
    Out.Sessions = {{"175.vpr-a", S(2), true, true, 1}};
  } else if (Name == "twolf-leap") {
    Out.BlockBytes = 16 * 1024;
    Out.Sessions = {{"300.twolf-a", S(20), false, true, 1}};
  } else if (Name == "twolf-full-t2") {
    Out.BlockBytes = 128 * 1024;
    Out.Sessions = {{"300.twolf-a", S(4), true, true, 2}};
  } else if (Name == "daemon-mix") {
    Out.Daemon = true;
    Out.BlockBytes = 6 * 1024;
    Out.Sessions = {{"175.vpr-a", S(1), true, true, 1},
                    {"197.parser-a", S(1), true, true, 1},
                    {"164.gzip-a", S(1), true, true, 1},
                    {"300.twolf-a", S(2), true, true, 1}};
  } else {
    return false;
  }
  return true;
}

std::string artifactPath(const std::string &Dir, const std::string &Workload,
                         const char *Ext) {
  return Dir + "/" + Workload + "." + Ext;
}

bool readFile(const std::string &Path, std::vector<uint8_t> &Out) {
  Out.clear();
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return false;
  uint8_t Buf[1 << 16];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) != 0)
    Out.insert(Out.end(), Buf, Buf + N);
  bool Ok = !std::ferror(F);
  std::fclose(F);
  return Ok;
}

bool writeFile(const std::string &Path, const std::vector<uint8_t> &Bytes) {
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  if (!F)
    return false;
  bool Ok = Bytes.empty() ||
            std::fwrite(Bytes.data(), 1, Bytes.size(), F) == Bytes.size();
  return std::fclose(F) == 0 && Ok;
}

double processCpuSeconds() {
  rusage U;
  getrusage(RUSAGE_SELF, &U);
  auto Sec = [](const timeval &T) {
    return static_cast<double>(T.tv_sec) + T.tv_usec / 1e6;
  };
  return Sec(U.ru_utime) + Sec(U.ru_stime);
}

double peakRssMiB() {
  rusage U;
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB.
}

void JsonObject::key(const std::string &Key) {
  if (!Body.empty())
    Body += ", ";
  Body += "\"" + Key + "\": ";
}

void JsonObject::add(const std::string &Key, double Value) {
  key(Key);
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.9g", Value);
  Body += Buf;
}

void JsonObject::add(const std::string &Key, uint64_t Value) {
  key(Key);
  Body += std::to_string(Value);
}

void JsonObject::add(const std::string &Key, const std::string &Value) {
  key(Key);
  Body += '"';
  for (char C : Value) {
    if (C == '"' || C == '\\')
      Body += '\\';
    if (static_cast<unsigned char>(C) < 0x20)
      C = ' ';
    Body += C;
  }
  Body += '"';
}

void JsonObject::add(const std::string &Key,
                     const std::vector<double> &Values) {
  key(Key);
  Body += "[";
  char Buf[32];
  for (size_t I = 0; I != Values.size(); ++I) {
    std::snprintf(Buf, sizeof(Buf), I ? ", %.6g" : "%.6g", Values[I]);
    Body += Buf;
  }
  Body += "]";
}

void Outcome::check(bool Ok, const std::string &What) {
  ++Attempted;
  if (Ok)
    return;
  ++Failed;
  if (FirstError.empty())
    FirstError = What;
}

void Outcome::addTo(JsonObject &J) const {
  J.add("attempted", Attempted);
  J.add("failed", Failed);
  J.add("error", FirstError);
}

} // namespace orpbench

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: orpbench setup|replay|daemon|traced|info "
               "--workload=W [--seed=N] --dir=D [--daemon-bin=PATH] "
               "[--spans=FILE] [--tiny]\n");
  return 2;
}

int info() {
  JsonObject J;
  J.add("build_type", std::string(ORPBENCH_BUILD_TYPE));
  J.add("check_level", static_cast<uint64_t>(ORPBENCH_CHECK_LEVEL));
  J.add("orp_version", std::string(orp::support::kVersionString));
  J.add("hardware_threads",
        static_cast<uint64_t>(std::thread::hardware_concurrency()));
  std::printf("%s\n", J.str().c_str());
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  if (argc < 2)
    return usage();
  std::string Cmd = argv[1];
  if (Cmd == "info")
    return info();
  std::string Workload, Dir, DaemonBin, Spans;
  uint64_t Seed = 0;
  bool Tiny = false;
  for (int I = 2; I < argc; ++I) {
    std::string Arg = argv[I];
    auto Value = [&Arg](const char *Flag, std::string &Out) {
      size_t N = std::strlen(Flag);
      if (Arg.compare(0, N, Flag) != 0)
        return false;
      Out = Arg.substr(N);
      return true;
    };
    std::string SeedText;
    if (Value("--workload=", Workload) || Value("--dir=", Dir) ||
        Value("--daemon-bin=", DaemonBin) || Value("--spans=", Spans))
      continue;
    if (Value("--seed=", SeedText)) {
      char *End = nullptr;
      Seed = std::strtoull(SeedText.c_str(), &End, 10);
      if (SeedText.empty() || *End)
        return usage();
    } else if (Arg == "--tiny") {
      Tiny = true;
    } else {
      std::fprintf(stderr, "orpbench: unknown argument '%s'\n", Arg.c_str());
      return usage();
    }
  }
  WorkloadSpec W;
  if (!findWorkload(Workload, Tiny, W)) {
    std::fprintf(stderr, "orpbench: unknown workload '%s'\n",
                 Workload.c_str());
    return 2;
  }
  if (Dir.empty())
    return usage();
  if (Cmd == "setup")
    return runSetup(W, Seed, Dir);
  if (Cmd == "replay" && !W.Daemon)
    return runReplay(W, Dir);
  if (Cmd == "daemon" && W.Daemon && !DaemonBin.empty())
    return runDaemonMix(W, Dir, DaemonBin, !Spans.empty(), Spans);
  if (Cmd == "traced" && !W.Daemon && !Spans.empty())
    return runTraced(W, Dir, Spans);
  return usage();
}
