//===- tests/telemetry_test.cpp - Telemetry subsystem tests --------------===//
//
// Coverage for src/telemetry: metric primitives (counter, gauge,
// histogram, phase timer), the sharded-cell aggregation under real
// thread contention, the global registry (lookup identity, collector
// RAII, enable gating, value reset), both exporters, and the
// MetricsTicker cadence. The registry is process-global, so every test
// uses metric names under its own "test.<suite>." prefix and asserts
// on deltas, never on absolute process-wide state.
//
//===----------------------------------------------------------------------===//

#include "support/WorkerPool.h"
#include "telemetry/Metric.h"
#include "telemetry/Registry.h"
#include "telemetry/Snapshot.h"
#include "trace/MetricsTicker.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

using namespace orp;

namespace {

telemetry::Registry &reg() { return telemetry::Registry::global(); }

using test::tempPath;

std::string slurp(const std::string &Path) {
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  EXPECT_NE(F, nullptr) << Path;
  if (!F)
    return "";
  std::string Out;
  char Buf[4096];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Out.append(Buf, N);
  std::fclose(F);
  return Out;
}

} // namespace

//===----------------------------------------------------------------------===//
// Metric primitives
//===----------------------------------------------------------------------===//

TEST(TelemetryCounterTest, AddAndValue) {
  telemetry::Counter C;
  EXPECT_EQ(C.value(), 0u);
  C.add();
  C.add(41);
  EXPECT_EQ(C.value(), 42u);
  C.reset();
  EXPECT_EQ(C.value(), 0u);
}

TEST(TelemetryGaugeTest, SetAddUpdateMax) {
  telemetry::Gauge G;
  G.set(-5);
  EXPECT_EQ(G.value(), -5);
  G.add(15);
  EXPECT_EQ(G.value(), 10);
  G.updateMax(7);
  EXPECT_EQ(G.value(), 10) << "updateMax must not lower the value";
  G.updateMax(99);
  EXPECT_EQ(G.value(), 99);
  G.reset();
  EXPECT_EQ(G.value(), 0);
}

TEST(TelemetryHistogramTest, BucketOfEdgeCases) {
  using H = telemetry::Histogram;
  // bucketOf(v) is the number of significant bits: bucket 0 holds only
  // zero, bucket b holds [2^(b-1), 2^b - 1].
  EXPECT_EQ(H::bucketOf(0), 0u);
  EXPECT_EQ(H::bucketOf(1), 1u);
  EXPECT_EQ(H::bucketOf(2), 2u);
  EXPECT_EQ(H::bucketOf(3), 2u);
  EXPECT_EQ(H::bucketOf(4), 3u);
  EXPECT_EQ(H::bucketOf(1023), 10u);
  EXPECT_EQ(H::bucketOf(1024), 11u);
  // Everything with >= kBuckets significant bits clamps into the last
  // (unbounded) bucket.
  EXPECT_EQ(H::bucketOf(uint64_t(1) << 40), H::kBuckets - 1);
  EXPECT_EQ(H::bucketOf(~uint64_t(0)), H::kBuckets - 1);
}

TEST(TelemetryHistogramTest, BucketBoundsMatchBucketOf) {
  using H = telemetry::Histogram;
  for (size_t B = 0; B + 1 < H::kBuckets; ++B) {
    uint64_t Bound = H::bucketBound(B);
    // The bound itself lands in bucket B; bound+1 in the next.
    EXPECT_EQ(H::bucketOf(Bound), B) << "bound " << Bound;
    EXPECT_EQ(H::bucketOf(Bound + 1), B + 1) << "bound " << Bound;
  }
}

TEST(TelemetryHistogramTest, RecordAggregates) {
  telemetry::Histogram H;
  H.record(0);
  H.record(1);
  H.record(5);
  H.record(5);
  EXPECT_EQ(H.count(), 4u);
  EXPECT_EQ(H.sum(), 11u);
  EXPECT_EQ(H.bucketCount(0), 1u); // the zero
  EXPECT_EQ(H.bucketCount(1), 1u); // the one
  EXPECT_EQ(H.bucketCount(3), 2u); // the fives (3 significant bits)
  EXPECT_EQ(H.bucketCount(2), 0u);
}

TEST(TelemetryPhaseTimerTest, ScopedTimerRecords) {
  telemetry::PhaseTimer T;
  {
    telemetry::ScopedTimer S(T);
  }
  {
    telemetry::ScopedTimer S(T);
  }
  EXPECT_EQ(T.count(), 2u);
  // Nanoseconds elapsed are clock-dependent; only monotonicity of the
  // aggregate is testable.
  uint64_t Total = T.totalNanos();
  {
    telemetry::ScopedTimer S(T);
  }
  EXPECT_GE(T.totalNanos(), Total);
  EXPECT_EQ(T.count(), 3u);
}

TEST(TelemetryEnableTest, DisabledMetricsDropUpdates) {
  telemetry::Counter C;
  telemetry::Histogram H;
  telemetry::PhaseTimer T;
  telemetry::setEnabled(false);
  C.add(10);
  H.record(10);
  {
    telemetry::ScopedTimer S(T);
  }
  telemetry::setEnabled(true);
  EXPECT_EQ(C.value(), 0u);
  EXPECT_EQ(H.count(), 0u);
  EXPECT_EQ(T.count(), 0u);
  C.add(1);
  EXPECT_EQ(C.value(), 1u) << "re-enabling restores recording";
}

//===----------------------------------------------------------------------===//
// Sharded aggregation under contention
//===----------------------------------------------------------------------===//

TEST(TelemetryConcurrencyTest, CountersAndHistogramsMatchGroundTruth) {
  constexpr unsigned kThreads = 8;
  constexpr uint64_t kPerThread = 20000;
  telemetry::Counter &C = reg().counter("test.concurrency.ops");
  telemetry::Histogram &H = reg().histogram("test.concurrency.sizes");
  C.reset();
  H.reset();

  {
    std::vector<std::unique_ptr<support::ScopedThread>> Threads;
    for (unsigned T = 0; T != kThreads; ++T)
      Threads.push_back(std::make_unique<support::ScopedThread>([T] {
        // Concurrent name lookups exercise the registry lock; the
        // returned references must be the same objects in every thread.
        telemetry::Counter &MyC = reg().counter("test.concurrency.ops");
        telemetry::Histogram &MyH = reg().histogram("test.concurrency.sizes");
        for (uint64_t I = 0; I != kPerThread; ++I) {
          MyC.add();
          MyH.record((T * kPerThread + I) % 1024);
        }
      }));
  } // ScopedThread joins on destruction.

  EXPECT_EQ(C.value(), kThreads * kPerThread);
  EXPECT_EQ(H.count(), kThreads * kPerThread);
  uint64_t Sum = 0;
  for (unsigned T = 0; T != kThreads; ++T)
    for (uint64_t I = 0; I != kPerThread; ++I)
      Sum += (T * kPerThread + I) % 1024;
  EXPECT_EQ(H.sum(), Sum);

  telemetry::MetricsSnapshot S = reg().snapshot();
  EXPECT_EQ(S.counter("test.concurrency.ops"), kThreads * kPerThread);
}

//===----------------------------------------------------------------------===//
// Registry
//===----------------------------------------------------------------------===//

TEST(TelemetryRegistryTest, LookupReturnsSameInstance) {
  telemetry::Counter &A = reg().counter("test.registry.same");
  telemetry::Counter &B = reg().counter("test.registry.same");
  EXPECT_EQ(&A, &B);
  telemetry::Gauge &G1 = reg().gauge("test.registry.gauge");
  telemetry::Gauge &G2 = reg().gauge("test.registry.gauge");
  EXPECT_EQ(&G1, &G2);
}

TEST(TelemetryRegistryTest, CollectorRunsAtSnapshotAndUnregisters) {
  int Runs = 0;
  {
    telemetry::CollectorHandle Handle =
        reg().addCollector([&Runs](telemetry::Registry &R) {
          ++Runs;
          R.gauge("test.registry.collected").set(123);
        });
    telemetry::MetricsSnapshot S = reg().snapshot();
    EXPECT_EQ(Runs, 1);
    EXPECT_EQ(S.gauge("test.registry.collected"), 123);
  }
  // Handle destroyed: the collector must not run again.
  (void)reg().snapshot();
  EXPECT_EQ(Runs, 1);
}

TEST(TelemetryRegistryTest, CollectorHandleMoveKeepsRegistration) {
  int Runs = 0;
  telemetry::CollectorHandle Outer;
  {
    telemetry::CollectorHandle Inner =
        reg().addCollector([&Runs](telemetry::Registry &) { ++Runs; });
    Outer = std::move(Inner);
  } // Inner (moved-from) destroyed: must not unregister.
  (void)reg().snapshot();
  EXPECT_EQ(Runs, 1);
  Outer.release();
  (void)reg().snapshot();
  EXPECT_EQ(Runs, 1) << "release() unregisters";
}

TEST(TelemetryRegistryTest, SnapshotSectionsAreSorted) {
  reg().counter("test.sorted.b");
  reg().counter("test.sorted.a");
  telemetry::MetricsSnapshot S = reg().snapshot();
  for (size_t I = 1; I < S.Counters.size(); ++I)
    EXPECT_LT(S.Counters[I - 1].Name, S.Counters[I].Name);
  for (size_t I = 1; I < S.Gauges.size(); ++I)
    EXPECT_LT(S.Gauges[I - 1].Name, S.Gauges[I].Name);
}

TEST(TelemetryRegistryTest, SnapshotFoldsLogCounters) {
  telemetry::MetricsSnapshot S = reg().snapshot();
  // The log sink bridge publishes all four severities unconditionally.
  bool FoundInfo = false, FoundError = false;
  for (const auto &G : S.Gauges) {
    FoundInfo |= G.Name == "log.info";
    FoundError |= G.Name == "log.error";
  }
  EXPECT_TRUE(FoundInfo);
  EXPECT_TRUE(FoundError);
}

TEST(TelemetryRegistryTest, ResetValuesClearsAggregates) {
  telemetry::Counter &C = reg().counter("test.reset.counter");
  C.add(7);
  reg().resetValues();
  EXPECT_EQ(C.value(), 0u);
  EXPECT_EQ(reg().snapshot().counter("test.reset.counter"), 0u);
}

//===----------------------------------------------------------------------===//
// Exporters
//===----------------------------------------------------------------------===//

namespace {

/// A snapshot with one metric of each kind and known values.
telemetry::MetricsSnapshot sampleSnapshot() {
  telemetry::MetricsSnapshot S;
  S.Counters.push_back({"export.count", 42});
  S.Gauges.push_back({"export.gauge", -7});
  telemetry::MetricsSnapshot::HistogramValue H;
  H.Name = "export.hist";
  for (size_t B = 0; B != telemetry::Histogram::kBuckets; ++B) {
    H.Bounds.push_back(telemetry::Histogram::bucketBound(B));
    H.Buckets.push_back(0);
  }
  H.Buckets[1] = 3; // three values of 1
  H.Count = 3;
  H.Sum = 3;
  S.Histograms.push_back(H);
  S.Timers.push_back({"export.timer", 2, 1500});
  return S;
}

} // namespace

TEST(TelemetryExportTest, JsonShape) {
  std::string J = sampleSnapshot().toJson(/*Pretty=*/true);
  EXPECT_NE(J.find("\"version\": 1"), std::string::npos);
  EXPECT_NE(J.find("\"export.count\": 42"), std::string::npos);
  EXPECT_NE(J.find("\"export.gauge\": -7"), std::string::npos);
  EXPECT_NE(J.find("\"total_ns\": 1500"), std::string::npos);
  // Only the non-empty bucket is emitted; bound of bucket 1 is 1.
  EXPECT_NE(J.find("\"le\": 1"), std::string::npos);
  EXPECT_EQ(J.find("\"le\": 3"), std::string::npos)
      << "empty buckets are skipped";
}

TEST(TelemetryExportTest, CompactJsonIsOneLine) {
  std::string J = sampleSnapshot().toJson(/*Pretty=*/false);
  ASSERT_FALSE(J.empty());
  EXPECT_EQ(J.back(), '\n');
  EXPECT_EQ(J.find('\n'), J.size() - 1) << "compact form is a single line";
  EXPECT_EQ(J.find(' '), std::string::npos) << "no spaces in compact form";
}

TEST(TelemetryExportTest, PrometheusShape) {
  std::string P = sampleSnapshot().toPrometheus();
  EXPECT_NE(P.find("# TYPE orp_export_count counter\n"), std::string::npos);
  EXPECT_NE(P.find("orp_export_count 42\n"), std::string::npos);
  EXPECT_NE(P.find("orp_export_gauge -7\n"), std::string::npos);
  // Histogram: cumulative buckets ending in the mandatory +Inf.
  EXPECT_NE(P.find("orp_export_hist_bucket{le=\"1\"} 3\n"),
            std::string::npos);
  EXPECT_NE(P.find("orp_export_hist_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(P.find("orp_export_hist_count 3\n"), std::string::npos);
  EXPECT_NE(P.find("orp_export_hist_sum 3\n"), std::string::npos);
  EXPECT_NE(P.find("orp_export_timer_ns_total 1500\n"), std::string::npos);
}

TEST(TelemetryExportTest, WriteSnapshotTruncatesAndAppends) {
  std::string Path = tempPath("write.json");
  std::string Err;
  telemetry::MetricsSnapshot S = sampleSnapshot();
  ASSERT_TRUE(telemetry::writeSnapshot(
      S, Path, telemetry::SnapshotFormat::JsonCompact, /*Append=*/false,
      Err))
      << Err;
  std::string Once = slurp(Path);
  ASSERT_TRUE(telemetry::writeSnapshot(
      S, Path, telemetry::SnapshotFormat::JsonCompact, /*Append=*/true, Err))
      << Err;
  EXPECT_EQ(slurp(Path), Once + Once);
  ASSERT_TRUE(telemetry::writeSnapshot(
      S, Path, telemetry::SnapshotFormat::JsonCompact, /*Append=*/false,
      Err))
      << Err;
  EXPECT_EQ(slurp(Path), Once) << "non-append truncates";
  std::remove(Path.c_str());
}

TEST(TelemetryExportTest, WriteSnapshotReportsUnwritablePath) {
  std::string Err;
  EXPECT_FALSE(telemetry::writeSnapshot(
      sampleSnapshot(), "/nonexistent-dir/x.json",
      telemetry::SnapshotFormat::Json, /*Append=*/false, Err));
  EXPECT_FALSE(Err.empty());
}

//===----------------------------------------------------------------------===//
// MetricsTicker cadence
//===----------------------------------------------------------------------===//

TEST(MetricsTickerTest, EmitsOncePerIntervalCrossing) {
  int Emits = 0;
  trace::MetricsTicker Ticker(
      100, [&Emits](const telemetry::MetricsSnapshot &) { ++Emits; });
  trace::AccessEvent E{};
  for (int I = 0; I != 99; ++I)
    test::deliver(Ticker, E);
  EXPECT_EQ(Emits, 0);
  test::deliver(Ticker, E);
  EXPECT_EQ(Emits, 1);
  // A batch spanning several boundaries emits once per crossing.
  std::vector<trace::AccessEvent> Batch(250);
  Ticker.onAccessBatch(Batch);
  EXPECT_EQ(Emits, 3);
  EXPECT_EQ(Ticker.eventsSeen(), 350u);
}
