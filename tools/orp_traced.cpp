//===- tools/orp_traced.cpp - The ORP profiling daemon --------------------===//
//
// Part of the ORP reproduction of "Exposing Memory Access Regularities
// Using Object-Relative Memory Profiling" (CGO 2004).
//
//===----------------------------------------------------------------------===//
//
// orp-traced: accepts trace streams over a Unix-domain socket and
// multiplexes them over a session engine (src/session). Clients open
// sessions, stream still-encoded .orpt event blocks, scrape live
// telemetry snapshots, and collect the finalized profiles on close —
// see `orp-trace submit` for the canonical client.
//
//===----------------------------------------------------------------------===//

#include "session/Daemon.h"
#include "support/Cli.h"
#include "support/LogSink.h"
#include "support/Version.h"

#include <csignal>
#include <cstdio>
#include <string>

using namespace orp;
using support::flagValue;
using support::LogLevel;
using support::logMessage;
using support::numericFlag;

namespace {

volatile std::sig_atomic_t GStopRequested = 0;

void onSignal(int) { GStopRequested = 1; }

int usage() {
  logMessage(
      LogLevel::Error,
      "usage: orp-traced --socket=PATH [options]\n"
      "\n"
      "Serves the orp-trace framed protocol on a Unix-domain socket,\n"
      "profiling many concurrent trace streams in one process.\n"
      "\n"
      "  --socket=PATH       socket path to listen on (required)\n"
      "  --outdir=DIR        write <session>.omsg/.leap here on close\n"
      "  --threads=N         scheduler shard threads (default 1)\n"
      "  --queue-capacity=N  per-session ingest queue slots (default 8)\n"
      "  --budget-bytes=N    evict idle LRU sessions over this estimate\n"
      "                      (default 0 = unlimited)\n"
      "  --version           print version and build flags");
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  session::DaemonConfig Config;
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    const char *V;
    uint64_t N;
    if (Arg == "--version") {
      support::printVersion("orp-traced");
      return 0;
    } else if ((V = flagValue(Arg, "--socket="))) {
      Config.SocketPath = V;
    } else if ((V = flagValue(Arg, "--outdir="))) {
      Config.OutDir = V;
    } else if ((V = flagValue(Arg, "--threads="))) {
      if (!numericFlag("orp-traced", "--threads", V, N))
        return usage();
      if (!N || N > 256) {
        logMessage(LogLevel::Error,
                   "orp-traced: --threads must be in [1, 256]");
        return usage();
      }
      Config.Manager.Threads = static_cast<unsigned>(N);
    } else if ((V = flagValue(Arg, "--queue-capacity="))) {
      if (!numericFlag("orp-traced", "--queue-capacity", V, N))
        return usage();
      if (!N) {
        logMessage(LogLevel::Error,
                   "orp-traced: --queue-capacity must be >= 1");
        return usage();
      }
      Config.Manager.IngestQueueCapacity = static_cast<size_t>(N);
    } else if ((V = flagValue(Arg, "--budget-bytes="))) {
      if (!numericFlag("orp-traced", "--budget-bytes", V, N))
        return usage();
      Config.Manager.MemoryBudgetBytes = static_cast<size_t>(N);
    } else {
      logMessage(LogLevel::Error, "orp-traced: unknown argument '%s'",
                 Arg.c_str());
      return usage();
    }
  }
  if (Config.SocketPath.empty()) {
    logMessage(LogLevel::Error, "orp-traced: --socket is required");
    return usage();
  }

  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);

  // main IS the daemon's control thread: claim the role capability the
  // session engine's entry points require (support/ThreadSafety.h).
  support::ScopedRole ControlRole(session::SessionControlRole);
  session::Daemon Daemon(Config);
  std::string Err;
  if (!Daemon.start(Err)) {
    logMessage(LogLevel::Error, "orp-traced: %s", Err.c_str());
    return 1;
  }
  std::printf("orp-traced: listening on %s (%u shard%s)\n",
              Config.SocketPath.c_str(), Config.Manager.Threads,
              Config.Manager.Threads == 1 ? "" : "s");
  std::fflush(stdout);
  Daemon.run([] { return GStopRequested != 0; });
  std::printf("orp-traced: shut down\n");
  return 0;
}
