//===- perfbench/Bench.h - End-to-end profiling benchmark -------*- C++ -*-===//
//
// Part of the ORP reproduction of "Exposing Memory Access Regularities
// Using Object-Relative Memory Profiling" (CGO 2004).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared declarations of the orpbench program: the workload table, the
/// artifact files a set-up leaves in the work directory, and the small
/// JSON/file helpers every subcommand uses. Each subcommand runs one
/// operation and prints one JSON object; run.py repeats and aggregates.
///
//===----------------------------------------------------------------------===//

#ifndef ORPBENCH_BENCH_H
#define ORPBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace orpbench {

/// One profiling session of a workload: which analogue, how large, and
/// which profilers the timed run enables.
struct SessionSpec {
  std::string Workload; ///< Analogue name, e.g. "175.vpr-a".
  uint64_t Scale = 1;
  bool Whomp = true;
  bool Leap = true;
  unsigned Threads = 1; ///< SessionConfig::ProfilerThreads of timed runs.
};

/// One benchmark workload.
struct WorkloadSpec {
  std::string Name;
  std::vector<SessionSpec> Sessions;
  bool Daemon = false;      ///< Served by an orp-traced process.
  unsigned DaemonShards = 2;
  size_t BlockBytes = 0;    ///< .orpt block size the set-up records.
};

/// Looks up \p Name; \p Tiny selects the smoke-test scales. Returns
/// false for an unknown workload.
bool findWorkload(const std::string &Name, bool Tiny, WorkloadSpec &Out);

/// Work-directory file of session \p Workload with \p Ext
/// ("orpt", "omsg" or "leap").
std::string artifactPath(const std::string &Dir, const std::string &Workload,
                         const char *Ext);

bool readFile(const std::string &Path, std::vector<uint8_t> &Out);
bool writeFile(const std::string &Path, const std::vector<uint8_t> &Bytes);

/// Seconds on the steady clock since an arbitrary epoch.
inline double nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// User+system CPU seconds of this process (all threads).
double processCpuSeconds();
/// Peak resident set of this process, in MiB.
double peakRssMiB();

/// Builds one flat JSON object, in insertion order.
class JsonObject {
public:
  void add(const std::string &Key, double Value);
  void add(const std::string &Key, uint64_t Value);
  void add(const std::string &Key, const std::string &Value);
  void add(const std::string &Key, const std::vector<double> &Values);
  std::string str() const { return "{" + Body + "}"; }

private:
  void key(const std::string &Key);
  std::string Body;
};

/// Outcome counts of one subcommand: operations attempted and failed
/// (blocks, sessions, artifact comparisons), plus the first error.
struct Outcome {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::string FirstError;

  void check(bool Ok, const std::string &What);
  void addTo(JsonObject &J) const;
};

// Subcommands (main.cpp dispatches). Each prints one JSON line and
// returns the process exit code.
int runSetup(const WorkloadSpec &W, uint64_t Seed, const std::string &Dir);
int runReplay(const WorkloadSpec &W, const std::string &Dir);
int runDaemonMix(const WorkloadSpec &W, const std::string &Dir,
                 const std::string &DaemonBin, bool Traced,
                 const std::string &SpansPath);
int runTraced(const WorkloadSpec &W, const std::string &Dir,
              const std::string &SpansPath);

} // namespace orpbench

#endif // ORPBENCH_BENCH_H
