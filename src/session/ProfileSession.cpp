//===- session/ProfileSession.cpp - One profiling session ----------------===//

#include "session/ProfileSession.h"

#include "leap/LeapProfileData.h"
#include "omc/OmcCheckpoint.h"
#include "support/ArtifactFrame.h"
#include "support/SpscQueue.h"
#include "support/VarInt.h"
#include "support/WorkerPool.h"
#include "telemetry/Registry.h"
#include "traceio/BlockCodec.h"
#include "whomp/OmsgArchive.h"

#include <algorithm>

using namespace orp;
using namespace orp::session;

ProfileSession::ProfileSession(std::string Name, const SessionConfig &Config)
    : Name(std::move(Name)), Config(Config),
      Core(std::make_unique<core::ProfilingSession>(Config.Policy,
                                                    Config.Seed)) {
  if (Config.EnableWhomp) {
    Whomp = std::make_unique<whomp::WhompProfiler>(Config.ProfilerThreads);
    Core->addConsumer(Whomp.get());
  }
  if (Config.EnableLeap) {
    Leap = std::make_unique<leap::LeapProfiler>(Config.MaxLmads,
                                                Config.ProfilerThreads);
    Core->addConsumer(Leap.get());
  }
}

ProfileSession::~ProfileSession() {
  // Threaded profilers own their grammars/substreams until finish();
  // make destruction safe for sessions that were never finalized.
  if (!Finished)
    Core->finish();
}

void ProfileSession::releaseGlobalCollectors() {
  Core->cdc().releaseCollector();
  if (Whomp)
    Whomp->releaseCollector();
  if (Leap)
    Leap->releaseCollector();
}

void ProfileSession::registerProbeTables(
    const std::vector<trace::InstrInfo> &Instrs,
    const std::vector<trace::AllocSiteInfo> &Sites) {
  trace::InstructionRegistry &Registry = Core->registry();
  for (const trace::InstrInfo &Info : Instrs)
    Registry.addInstruction(Info.Name, Info.Kind);
  for (const trace::AllocSiteInfo &Info : Sites)
    Registry.addAllocSite(Info.Name, Info.TypeName);
}

bool ProfileSession::injectBlock(const uint8_t *Payload, size_t Len,
                                 uint64_t EventCount, uint32_t Crc,
                                 uint64_t BlockIndex,
                                 uint8_t FormatVersion) {
  if (Failed)
    return false;
  if (FormatVersion < traceio::kFormatVersionV1 ||
      FormatVersion > traceio::kFormatVersionV2) {
    Err = "block " + std::to_string(BlockIndex) +
          ": unsupported format version " + std::to_string(FormatVersion);
    Failed = true;
    return false;
  }
  traceio::DecodedBlock Block;
  if (!traceio::verifyBlockChecksum(Payload, Len, Crc, BlockIndex,
                                    /*BaseOffset=*/0, Err) ||
      !traceio::decodeEventBlock(FormatVersion, Payload, Len, EventCount,
                                 Block, Err, BlockIndex, /*BaseOffset=*/0)) {
    Failed = true;
    return false;
  }
  Events += traceio::injectDecodedBlock(Core->memory(), Block);
  return true;
}

bool ProfileSession::replayFrom(
    traceio::TraceReader &Reader, unsigned DecodeThreads,
    uint64_t FirstBlock, uint64_t EndBlock,
    const std::function<void(uint64_t)> &BlockDone) {
  // A ranged or resumed replay calls this once per segment; the probe
  // tables go in with the first.
  const trace::InstructionRegistry &Registry = Core->registry();
  if (Registry.numInstructions() == 0 && Registry.numAllocSites() == 0)
    registerProbeTables(Reader.instructions(), Reader.allocSites());

  trace::MemoryInterface &Memory = Core->memory();
  telemetry::Registry &Reg = telemetry::Registry::global();
  telemetry::ScopedTimer ReplayTiming(Reg.timer("replay.total"));
  uint64_t Replayed = 0;

  // Replay covers blocks [B0, B1); checkpoint/resume callers restrict
  // the range, everything else replays the whole trace.
  const uint64_t NumBlocks = Reader.numEventBlocks();
  const uint64_t B0 = FirstBlock < NumBlocks ? FirstBlock : NumBlocks;
  const uint64_t B1 =
      EndBlock < B0 ? B0 : (EndBlock < NumBlocks ? EndBlock : NumBlocks);

  // Every block, of either format version, decodes into a DecodedBlock
  // and every between-boundaries run of accesses is injected as one
  // span — whole-slice onAccessBatch fan-out instead of per-event
  // virtual dispatch. A corrupt block is never partly injected.
  bool Ok = true;
  if (DecodeThreads <= 1 || B1 - B0 < 2) {
    traceio::DecodedBlock Block;
    for (uint64_t B = B0; B != B1; ++B) {
      if (!Reader.decodeBlockColumns(B, Block)) {
        Ok = false;
        break;
      }
      Replayed += traceio::injectDecodedBlock(Memory, Block);
      if (BlockDone)
        BlockDone(B + 1);
    }
  } else {
    // Double-buffered replay: a worker decodes blocks ahead through a
    // bounded queue while this thread injects. Block order is queue
    // order, so event delivery order — and every downstream profile —
    // is identical to the serial path. The sinks are not thread-safe;
    // they are only ever touched from this thread.
    support::SpscQueue<traceio::DecodedBlock> Decoded(DecodeQueueDepth);
    // Written by the decoder only; join() publishes it to this thread.
    bool DecodeOk = true;
    support::ScopedThread Decoder([&Reader, &Decoded, &DecodeOk, B0, B1] {
      traceio::DecodedBlock Block;
      for (uint64_t B = B0; B != B1; ++B) {
        if (!Reader.decodeBlockColumns(B, Block)) {
          DecodeOk = false;
          break;
        }
        if (!Decoded.push(std::move(Block)))
          break; // Queue closed: the consumer is gone, stop decoding.
        Block = traceio::DecodedBlock();
      }
      // Blocks decoded before a corrupt one are injected, as serially.
      Decoded.close();
    });
    traceio::DecodedBlock Block;
    // Blocks arrive in decode order, so the consumer's count names
    // the block just injected; the callback runs on this (injecting)
    // thread, as the session is single-threaded.
    uint64_t NextBlock = B0;
    while (Decoded.pop(Block)) {
      Replayed += traceio::injectDecodedBlock(Memory, Block);
      ++NextBlock;
      if (BlockDone)
        BlockDone(NextBlock);
    }
    Decoder.join();
    // Publish the decode-ahead queue's final counters: its high
    // watermark vs capacity says whether the decoder kept ahead of the
    // injection loop, and PushStalls counts the times it outran us.
    support::QueueTelemetry QT = Decoded.telemetry();
    Reg.gauge("replay.decode_queue.capacity")
        .set(static_cast<int64_t>(QT.Capacity));
    Reg.gauge("replay.decode_queue.high_watermark")
        .set(static_cast<int64_t>(QT.HighWatermark));
    Reg.gauge("replay.decode_queue.pushes")
        .set(static_cast<int64_t>(QT.Pushes));
    Reg.gauge("replay.decode_queue.push_stalls")
        .set(static_cast<int64_t>(QT.PushStalls));
    Ok = DecodeOk;
  }
  Reg.counter("replay.events").add(Replayed);
  // Whole blocks only: a corrupt block delivers none of its events.
  Events += Replayed;
  if (!Ok) {
    Failed = true;
    Err = Reader.error();
  }
  return Ok;
}

std::vector<uint8_t>
ProfileSession::checkpoint(const traceio::TraceReader &Reader,
                           uint64_t NextBlock) {
  std::vector<uint8_t> Out;
  support::beginFrame(kCheckpointMagic, kCheckpointVersion, Out);

  // Progress.
  encodeULEB128(NextBlock, Out);
  encodeULEB128(Events, Out);
  // Session configuration a resume must reproduce to get identical
  // translations and artifacts.
  Out.push_back(static_cast<uint8_t>(Config.Policy));
  encodeULEB128(Config.Seed, Out);
  Out.push_back(Config.EnableWhomp ? 1 : 0);
  Out.push_back(Config.EnableLeap ? 1 : 0);
  encodeULEB128(Config.MaxLmads, Out);
  // Trace identity: enough to reject resuming against the wrong file.
  encodeULEB128(Reader.numEventBlocks(), Out);
  encodeULEB128(Reader.info().TotalEvents, Out);

  omc::OmcCheckpoint::serialize(Core->omc(), Out);
  support::sealFrame(Out);
  return Out;
}

bool ProfileSession::restoreCheckpoint(const std::vector<uint8_t> &Bytes,
                                       const traceio::TraceReader &Reader,
                                       uint64_t &NextBlock,
                                       std::string &Err) {
  if (Events != 0 || Finished || Failed) {
    Err = "checkpoint: restore target is not a fresh session";
    return false;
  }
  support::ByteCursor C = support::openFrame(
      Bytes, kCheckpointMagic, kCheckpointVersion, "checkpoint", Err);
  uint64_t Next = 0, EventsSoFar = 0, Seed = 0, MaxLmads = 0;
  uint64_t TraceBlocks = 0, TraceEvents = 0;
  uint8_t Policy = 0;
  bool EnableWhomp = false, EnableLeap = false;
  if (!C.readU("next block", Next) || !C.readU("event count", EventsSoFar) ||
      !C.readByte("alloc policy", Policy) || !C.readU("seed", Seed) ||
      !C.readFlag("whomp flag", EnableWhomp) ||
      !C.readFlag("leap flag", EnableLeap) ||
      !C.readU("max lmads", MaxLmads) ||
      !C.readU("trace block count", TraceBlocks) ||
      !C.readU("trace event count", TraceEvents))
    return false;
  if (Policy != static_cast<uint8_t>(Config.Policy) ||
      Seed != Config.Seed || EnableWhomp != Config.EnableWhomp ||
      EnableLeap != Config.EnableLeap || MaxLmads != Config.MaxLmads)
    return C.fail("session configuration mismatch");
  if (TraceBlocks != Reader.numEventBlocks() ||
      TraceEvents != Reader.info().TotalEvents)
    return C.fail("trace identity mismatch (different trace?)");
  if (Next > TraceBlocks)
    return C.fail("next block beyond the end of the trace");
  if (!omc::OmcCheckpoint::restore(C, Core->omc()) || !C.expectEnd())
    return false;
  Events = EventsSoFar;
  NextBlock = Next;
  return true;
}

SessionArtifacts ProfileSession::finalize() {
  if (!Finished) {
    Core->finish();
    Finished = true;
  }
  SessionArtifacts A;
  A.Name = Name;
  A.Events = Events;
  A.Failed = Failed;
  A.Error = Err;
  if (Whomp) {
    // The trace is untrusted: a terminal the grammar image cannot hold
    // fails the session instead of reaching serialize()'s fatal guard.
    if (std::string Why = whomp::OmsgArchive::imageRangeError(*Whomp);
        !Why.empty()) {
      if (!A.Failed)
        A.Error = Name + ": " + Why;
      A.Failed = true;
    } else {
      A.Omsg = whomp::OmsgArchive::serializeProfile(*Whomp, &Core->omc());
    }
  }
  if (Leap)
    A.Leap = leap::LeapProfileData::fromProfiler(*Leap).serialize();
  return A;
}

size_t ProfileSession::memoryEstimateBytes() {
  // Nominal per-structure byte weights. The absolute numbers only need
  // to rank sessions and grow with real usage; the budget they are
  // compared against is configured in the same units.
  constexpr size_t kSymbolSlabBytes = 2048 * 32;
  constexpr size_t kRuleSlabBytes = 256 * 48;
  constexpr size_t kDigramBytes = 64;
  constexpr size_t kLiveObjectBytes = 96;
  constexpr size_t kGroupBytes = 64;

  size_t Est = sizeof(ProfileSession);
  const omc::ObjectManager &Omc = Core->omc();
  Est += Omc.numLiveObjects() * kLiveObjectBytes;
  Est += Omc.numGroups() * kGroupBytes;
  // Grammar/substream accessors are only coherent from the owning
  // thread while profiler workers run; with ProfilerThreads == 1 (the
  // SessionManager configuration) this thread is the owner.
  if (Config.ProfilerThreads <= 1) {
    if (Whomp) {
      for (core::Dimension D :
           {core::Dimension::Instruction, core::Dimension::Group,
            core::Dimension::Object, core::Dimension::Offset}) {
        const sequitur::SequiturGrammar &G = Whomp->grammarFor(D);
        Est += G.numSymbolSlabs() * kSymbolSlabBytes +
               G.numRuleSlabs() * kRuleSlabBytes +
               G.numDigrams() * kDigramBytes;
      }
    }
    if (Leap)
      Est += Leap->serializedSizeBytes();
  }
  return Est;
}
