//===- tests/trace_test.cpp - Instrumentation runtime unit tests ---------===//

#include "memsim/AddressSpace.h"
#include "trace/Events.h"
#include "trace/InstructionRegistry.h"
#include "trace/MemoryInterface.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <span>
#include <vector>

using namespace orp;
using namespace orp::trace;

TEST(InstructionRegistryTest, AssignsDenseIds) {
  InstructionRegistry R;
  InstrId A = R.addInstruction("load x", AccessKind::Load);
  InstrId B = R.addInstruction("store y", AccessKind::Store);
  EXPECT_EQ(A, 0u);
  EXPECT_EQ(B, 1u);
  EXPECT_EQ(R.numInstructions(), 2u);
  EXPECT_EQ(R.instruction(A).Name, "load x");
  EXPECT_EQ(R.instruction(A).Kind, AccessKind::Load);
  EXPECT_EQ(R.instruction(B).Kind, AccessKind::Store);
}

TEST(InstructionRegistryTest, AllocSites) {
  InstructionRegistry R;
  AllocSiteId S = R.addAllocSite("new node", "struct node");
  EXPECT_EQ(S, 0u);
  EXPECT_EQ(R.allocSite(S).Name, "new node");
  EXPECT_EQ(R.allocSite(S).TypeName, "struct node");
  EXPECT_EQ(R.numAllocSites(), 1u);
}

TEST(MemoryInterfaceTest, ClockAdvancesPerAccess) {
  MemoryInterface M;
  CountingSink C;
  M.attachSink(&C);
  EXPECT_EQ(M.now(), 0u);
  M.load(0, 0x1000);
  M.store(1, 0x1008);
  EXPECT_EQ(M.now(), 2u);
  M.flushAccesses(); // Accesses batch; deliver before inspecting the sink.
  EXPECT_EQ(C.accesses(), 2u);
  EXPECT_EQ(C.loads(), 1u);
  EXPECT_EQ(C.stores(), 1u);
}

TEST(MemoryInterfaceTest, ClockAdvancesEvenWithoutSinks) {
  MemoryInterface M;
  M.load(0, 0x1000);
  M.load(0, 0x1000);
  EXPECT_EQ(M.now(), 2u);
}

TEST(MemoryInterfaceTest, EventsCarryTimestamps) {
  MemoryInterface M;
  BufferSink B;
  M.attachSink(&B);
  M.load(3, 0xAAAA, 4);
  M.store(4, 0xBBBB, 8);
  M.flushAccesses();
  ASSERT_EQ(B.accesses().size(), 2u);
  EXPECT_EQ(B.accesses()[0].Time, 0u);
  EXPECT_EQ(B.accesses()[0].Instr, 3u);
  EXPECT_EQ(B.accesses()[0].Size, 4u);
  EXPECT_FALSE(B.accesses()[0].IsStore);
  EXPECT_EQ(B.accesses()[1].Time, 1u);
  EXPECT_TRUE(B.accesses()[1].IsStore);
}

TEST(MemoryInterfaceTest, HeapAllocEmitsObjectProbe) {
  MemoryInterface M;
  BufferSink B;
  M.attachSink(&B);
  uint64_t Addr = M.heapAlloc(7, 96);
  ASSERT_NE(Addr, 0u);
  ASSERT_EQ(B.allocs().size(), 1u);
  EXPECT_EQ(B.allocs()[0].Site, 7u);
  EXPECT_EQ(B.allocs()[0].Addr, Addr);
  EXPECT_EQ(B.allocs()[0].Size, 96u);
  EXPECT_FALSE(B.allocs()[0].IsStatic);
  M.heapFree(Addr);
  ASSERT_EQ(B.frees().size(), 1u);
  EXPECT_EQ(B.frees()[0].Addr, Addr);
}

TEST(MemoryInterfaceTest, StaticAllocPlacesInStaticSegment) {
  MemoryInterface M;
  BufferSink B;
  M.attachSink(&B);
  uint64_t A1 = M.staticAlloc(0, 100, 8);
  uint64_t A2 = M.staticAlloc(1, 50, 8);
  EXPECT_EQ(memsim::classifyAddress(A1), memsim::SegmentKind::Static);
  EXPECT_GE(A2, A1 + 100);
  ASSERT_EQ(B.allocs().size(), 2u);
  EXPECT_TRUE(B.allocs()[0].IsStatic);
}

TEST(MemoryInterfaceTest, FinishFreesStatics) {
  MemoryInterface M;
  BufferSink B;
  M.attachSink(&B);
  uint64_t A1 = M.staticAlloc(0, 100, 8);
  uint64_t A2 = M.staticAlloc(1, 50, 8);
  M.finish();
  ASSERT_EQ(B.frees().size(), 2u);
  EXPECT_EQ(B.frees()[0].Addr, A1);
  EXPECT_EQ(B.frees()[1].Addr, A2);
  M.finish(); // Idempotent.
  EXPECT_EQ(B.frees().size(), 2u);
}

namespace {

void expectSameAccesses(const std::vector<AccessEvent> &A,
                        const std::vector<AccessEvent> &B) {
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I != A.size(); ++I) {
    EXPECT_EQ(A[I].Instr, B[I].Instr) << I;
    EXPECT_EQ(A[I].Addr, B[I].Addr) << I;
    EXPECT_EQ(A[I].Size, B[I].Size) << I;
    EXPECT_EQ(A[I].IsStore, B[I].IsStore) << I;
    EXPECT_EQ(A[I].Time, B[I].Time) << I;
  }
}

} // namespace

TEST(MemoryInterfaceTest, InjectAccessBatchIsChunkingInvariant) {
  // Sinks must see one stream however it arrives: replay injecting a
  // run as one span or as 1-event spans, and the live probes batching
  // the same accesses (over more than one flush) themselves.
  const size_t N = 2 * MemoryInterface::BatchCapacity + 5;
  std::vector<AccessEvent> Events;
  for (uint64_t I = 0; I != N; ++I)
    Events.push_back({static_cast<InstrId>(I % 7), 0x1000 + I * 8,
                      (I % 3) ? 8u : 4u, (I & 1) != 0, I});

  MemoryInterface Whole, Singles, Live;
  BufferSink SinkWhole, SinkSingles, SinkLive;
  Whole.attachSink(&SinkWhole);
  Singles.attachSink(&SinkSingles);
  Live.attachSink(&SinkLive);
  Whole.injectAccessBatch(std::span<const AccessEvent>(Events));
  for (const AccessEvent &E : Events)
    Singles.injectAccessBatch(std::span<const AccessEvent>(&E, 1));
  for (const AccessEvent &E : Events) {
    if (E.IsStore)
      Live.store(E.Instr, E.Addr, E.Size);
    else
      Live.load(E.Instr, E.Addr, E.Size);
  }
  Live.flushAccesses();

  ASSERT_EQ(SinkWhole.accesses().size(), N);
  expectSameAccesses(SinkWhole.accesses(), Events);
  expectSameAccesses(SinkSingles.accesses(), Events);
  expectSameAccesses(SinkLive.accesses(), Events);
  EXPECT_EQ(Whole.now(), N);
  EXPECT_EQ(Singles.now(), N);
  EXPECT_EQ(Live.now(), N);
}

TEST(MemoryInterfaceTest, InjectAccessBatchFlushesLiveAccessesFirst) {
  // A batch arriving while live accesses sit in the access buffer must
  // not reorder the stream: buffered events flush first.
  MemoryInterface M;
  BufferSink B;
  M.attachSink(&B);
  M.load(1, 0x10, 4);
  std::vector<AccessEvent> Batch{{2, 0x20, 4, true, 1}};
  M.injectAccessBatch(std::span<const AccessEvent>(Batch));
  ASSERT_EQ(B.accesses().size(), 2u);
  EXPECT_EQ(B.accesses()[0].Instr, 1u);
  EXPECT_EQ(B.accesses()[1].Instr, 2u);
  EXPECT_EQ(M.now(), 2u);
}

TEST(MemoryInterfaceTest, ForwardsToEveryAttachedSink) {
  MemoryInterface M;
  CountingSink C1, C2;
  M.attachSink(&C1);
  M.attachSink(&C2);
  uint64_t Addr = M.heapAlloc(0, 8);
  M.store(0, Addr);
  M.heapFree(Addr);
  for (const CountingSink *C : {&C1, &C2}) {
    EXPECT_EQ(C->accesses(), 1u);
    EXPECT_EQ(C->stores(), 1u);
    EXPECT_EQ(C->allocs(), 1u);
    EXPECT_EQ(C->frees(), 1u);
  }
}

TEST(MemoryInterfaceTest, SeedShiftsStaticBase) {
  MemoryInterface M1(memsim::AllocPolicy::FirstFit, 1);
  MemoryInterface M2(memsim::AllocPolicy::FirstFit, 12345);
  uint64_t A1 = M1.staticAlloc(0, 8, 8);
  uint64_t A2 = M2.staticAlloc(0, 8, 8);
  EXPECT_NE(A1, A2) << "probe-insertion artifact should shift statics";
}

TEST(CountingSinkTest, RawTraceBytes) {
  CountingSink C;
  std::vector<AccessEvent> Events(10, AccessEvent{0, 0x1000, 8, false, 0});
  C.onAccessBatch(std::span<const AccessEvent>(Events));
  EXPECT_EQ(C.rawTraceBytes(), 120u);
}

TEST(BufferSinkTest, ReplayPreservesDeliveryOrder) {
  // Free + realloc at the same address within one timestamp tick: replay
  // must reproduce the exact order or a consumer would see a duplicate
  // live range.
  BufferSink B;
  B.onAlloc(AllocEvent{0, 0x1000, 64, 0, false});
  B.onFree(FreeEvent{0x1000, 0});
  B.onAlloc(AllocEvent{1, 0x1000, 32, 0, false});
  test::deliver(B, AccessEvent{0, 0x1000, 8, false, 0});

  struct OrderSink : TraceSink {
    std::vector<int> Seen;
    bool Finished = false;
    void onAccessBatch(std::span<const AccessEvent> Events) override {
      Seen.insert(Seen.end(), Events.size(), 0);
    }
    void onAlloc(const AllocEvent &) override { Seen.push_back(1); }
    void onFree(const FreeEvent &) override { Seen.push_back(2); }
    void onFinish() override { Finished = true; }
  } S;
  B.replayTo(S);
  EXPECT_EQ(S.Seen, (std::vector<int>{1, 2, 1, 0}));
  EXPECT_TRUE(S.Finished);
}

TEST(BufferSinkTest, ReplayBatchesEachRunOfAccesses) {
  // Each maximal run of accesses between two alloc/free events is
  // replayed as one batch, whatever batches it was recorded in.
  BufferSink B;
  std::vector<AccessEvent> Run{{0, 0x1000, 8, false, 0},
                               {1, 0x1008, 8, true, 1},
                               {2, 0x1010, 8, false, 2}};
  B.onAccessBatch(std::span<const AccessEvent>(Run).first(2));
  B.onAlloc(AllocEvent{0, 0x2000, 64, 2, false});
  test::deliver(B, Run[0]);
  B.onAccessBatch(std::span<const AccessEvent>(Run));
  B.onFree(FreeEvent{0x2000, 5});
  test::deliver(B, Run[2]);

  struct BatchSink : TraceSink {
    std::vector<int> Seen; // Batch sizes; -1 alloc, -2 free.
    void onAccessBatch(std::span<const AccessEvent> Events) override {
      Seen.push_back(static_cast<int>(Events.size()));
    }
    void onAlloc(const AllocEvent &) override { Seen.push_back(-1); }
    void onFree(const FreeEvent &) override { Seen.push_back(-2); }
  } S;
  B.replayTo(S);
  EXPECT_EQ(S.Seen, (std::vector<int>{2, -1, 4, -2, 1}));
}

TEST(BufferSinkTest, ReplayEqualsOriginalStream) {
  MemoryInterface M;
  BufferSink B;
  M.attachSink(&B);
  uint64_t H = M.heapAlloc(0, 128);
  M.store(0, H, 8);
  M.load(1, H + 8, 8);
  M.heapFree(H);
  uint64_t H2 = M.heapAlloc(0, 64);
  M.load(1, H2, 8);
  M.finish();

  BufferSink Copy;
  B.replayTo(Copy);
  ASSERT_EQ(Copy.accesses().size(), B.accesses().size());
  for (size_t I = 0; I != B.accesses().size(); ++I) {
    EXPECT_EQ(Copy.accesses()[I].Addr, B.accesses()[I].Addr);
    EXPECT_EQ(Copy.accesses()[I].Time, B.accesses()[I].Time);
  }
  EXPECT_EQ(Copy.allocs().size(), B.allocs().size());
  EXPECT_EQ(Copy.frees().size(), B.frees().size());
}

//===----------------------------------------------------------------------===//
// Free-path hardening: the contracts pinned in MemoryInterface.h
//===----------------------------------------------------------------------===//

TEST(MemoryInterfaceTest, UnknownHeapFreeIsCountedNoOp) {
  MemoryInterface M;
  BufferSink B;
  M.attachSink(&B);
  uint64_t Live = M.heapAlloc(0, 64);
  ASSERT_NE(Live, 0u);
  uint64_t HeapUsed = M.allocator().stats().LiveBytes;

  M.heapFree(0xDEAD0000); // Never allocated.
  EXPECT_EQ(M.unknownFrees(), 1u);
  EXPECT_EQ(B.frees().size(), 0u) << "no sink event for an unknown free";
  EXPECT_EQ(M.allocator().stats().LiveBytes, HeapUsed)
      << "allocator untouched by an unknown free";
  EXPECT_EQ(M.allocator().liveBlockSize(Live), 64u);
}

TEST(MemoryInterfaceTest, DoubleFreeIsCountedNoOp) {
  MemoryInterface M;
  BufferSink B;
  M.attachSink(&B);
  uint64_t Addr = M.heapAlloc(0, 32);
  ASSERT_NE(Addr, 0u);
  M.heapFree(Addr); // Valid.
  EXPECT_EQ(B.frees().size(), 1u);
  EXPECT_EQ(M.unknownFrees(), 0u);
  M.heapFree(Addr); // Double free: address is no longer live.
  EXPECT_EQ(M.unknownFrees(), 1u);
  EXPECT_EQ(B.frees().size(), 1u) << "double free reaches no sink";
}

TEST(MemoryInterfaceTest, FreeMidBatchFlushesAccessesFirst) {
  // A free arriving while accesses are batched must not overtake them:
  // sinks see the accesses, then the free, exactly in execution order.
  struct OrderSink : TraceSink {
    std::vector<char> Seen;
    void onAccessBatch(std::span<const AccessEvent> Events) override {
      for (size_t I = 0; I != Events.size(); ++I)
        Seen.push_back('a');
    }
    void onAlloc(const AllocEvent &) override { Seen.push_back('A'); }
    void onFree(const FreeEvent &) override { Seen.push_back('F'); }
  } S;
  MemoryInterface M;
  M.attachSink(&S);
  uint64_t Addr = M.heapAlloc(0, 64);
  M.load(0, Addr);
  M.store(1, Addr + 8);
  // Batch capacity (default 128) not reached: both accesses pending.
  M.heapFree(Addr);
  EXPECT_EQ(S.Seen, (std::vector<char>{'A', 'a', 'a', 'F'}));
}

TEST(MemoryInterfaceTest, UnknownFreeDoesNotFlushBatch) {
  // An ignored free is a true no-op: the access batch stays pending, so
  // the unknown-free filter cannot perturb batching behavior.
  MemoryInterface M;
  CountingSink C;
  M.attachSink(&C);
  M.load(0, 0x1000);
  M.heapFree(0xDEAD0000);
  EXPECT_EQ(M.unknownFrees(), 1u);
  EXPECT_EQ(C.accesses(), 0u) << "batch not flushed by the no-op";
  M.flushAccesses();
  EXPECT_EQ(C.accesses(), 1u);
}

TEST(MemoryInterfaceTest, InjectFreeForwardsUnknownAddressVerbatim) {
  // Replay hook contract: the trace is the authority — an inject of a
  // free the simulated heap never saw still reaches the sinks (the OMC
  // diagnoses it downstream as OmcStats::UnknownFrees).
  MemoryInterface M;
  BufferSink B;
  M.attachSink(&B);
  M.injectFree(FreeEvent{0xDEAD0000, 5});
  ASSERT_EQ(B.frees().size(), 1u);
  EXPECT_EQ(B.frees()[0].Addr, 0xDEAD0000u);
  EXPECT_EQ(B.frees()[0].Time, 5u);
  EXPECT_EQ(M.unknownFrees(), 0u) << "inject path does not filter";
}
