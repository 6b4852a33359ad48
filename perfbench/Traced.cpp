//===- perfbench/Traced.cpp - The traced per-layer replay ----------------===//
//
// Part of the ORP reproduction of "Exposing Memory Access Regularities
// Using Object-Relative Memory Profiling" (CGO 2004).
//
//===----------------------------------------------------------------------===//
//
// One traced replay of a set-up trace. The pipeline is wired here from
// the same public parts ProfileSession uses — core::ProfilingSession,
// a HorizontalDecomposer of whomp::SequiturStreamCompressor grammars,
// leap::LeapProfiler — so that spans can sit at every layer boundary:
//
//   session.inject            one event block
//     traceio.decode          TraceReader::decodeBlockColumns
//     omc.translate           injectDecodedBlock (MemoryInterface+Cdc+OMC)
//       whomp.consume         HorizontalDecomposer::consumeBatch
//         sequitur.<dim>      that dimension's appendBatch
//         bench.capture       copying the dimension symbols aside
//       leap.consume          LeapProfiler::consumeBatch
//   session.finalize
//     whomp.finish / leap.finish
//     whomp.serialize         grammar images + expansion + object table
//     leap.serialize          LeapProfileData::fromProfiler + serialize
//
// With ProfilerThreads > 1 the decoder runs ahead on its own thread and
// the grammars on their dimension workers, as in a threaded
// ProfileSession replay; their spans are roots on those threads.
//
// The run's artifacts are checked against the set-up reference: LEAP
// byte for byte, OMSG by its parts (each dimension's grammar image and
// the object table, which is everything OmsgArchive::serialize frames),
// and every grammar's expandAll() against the dimension stream the
// benchmark captured on its way in.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Spans.h"

#include "core/ProfilingSession.h"
#include "leap/LeapProfileData.h"
#include "session/ProfileSession.h"
#include "support/SpscQueue.h"
#include "support/WorkerPool.h"
#include "traceio/BlockCodec.h"
#include "traceio/TraceReader.h"
#include "whomp/OmsgArchive.h"

#include <cstdio>
#include <memory>

using namespace orp;
using namespace orpbench;

namespace {

constexpr size_t kNumDims = 4;
const core::Dimension kDims[kNumDims] = {
    core::Dimension::Instruction, core::Dimension::Group,
    core::Dimension::Object, core::Dimension::Offset};
const SpanName kSequiturSpan[kNumDims] = {
    SpanName::SequiturInstr, SpanName::SequiturGroup,
    SpanName::SequiturObject, SpanName::SequiturOffset};

/// One dimension's grammar, timed per appendBatch, keeping a copy of
/// every symbol it was given.
class TimedSequitur : public core::StreamCompressor {
public:
  explicit TimedSequitur(size_t Dim) : Dim(Dim) {}

  void append(uint64_t Symbol) override {
    appendBatch(std::span<const uint64_t>(&Symbol, 1));
  }
  void appendBatch(std::span<const uint64_t> Symbols) override {
    {
      Span S(kSequiturSpan[Dim]);
      Inner.appendBatch(Symbols);
    }
    Span S(SpanName::BenchCapture);
    Captured.insert(Captured.end(), Symbols.begin(), Symbols.end());
  }
  size_t serializedSizeBytes() const override {
    return Inner.serializedSizeBytes();
  }

  const sequitur::SequiturGrammar &grammar() const { return Inner.grammar(); }
  const std::vector<uint64_t> &captured() const { return Captured; }

private:
  size_t Dim;
  whomp::SequiturStreamCompressor Inner;
  std::vector<uint64_t> Captured;
};

/// WhompProfiler's decomposition with timed grammars.
class TracedWhomp : public core::OrTupleConsumer {
public:
  explicit TracedWhomp(unsigned Threads)
      : Decomposer(
            std::vector<core::Dimension>(kDims, kDims + kNumDims),
            [this] { return std::make_unique<TimedSequitur>(NextDim++); },
            Threads) {}

  void consume(const core::OrTuple &Tuple) override {
    Span S(SpanName::WhompConsume);
    Decomposer.consume(Tuple);
    ++Tuples;
  }
  void consumeBatch(std::span<const core::OrTuple> Batch) override {
    Span S(SpanName::WhompConsume);
    Decomposer.consumeBatch(Batch);
    Tuples += Batch.size();
  }
  void finish() override {
    Span S(SpanName::WhompFinish);
    Decomposer.finish();
  }

  const TimedSequitur &dimension(size_t I) const {
    return static_cast<const TimedSequitur &>(
        Decomposer.compressorFor(kDims[I]));
  }
  std::vector<support::WorkerTelemetry> workerTelemetry() const {
    return Decomposer.workerTelemetry();
  }
  uint64_t tuples() const { return Tuples; }

private:
  size_t NextDim = 0; // Read by the factory while Decomposer is built.
  core::HorizontalDecomposer Decomposer;
  uint64_t Tuples = 0;
};

/// A LeapProfiler behind consume spans.
class TimedLeap : public core::OrTupleConsumer {
public:
  explicit TimedLeap(leap::LeapProfiler &Inner) : Inner(Inner) {}

  void consume(const core::OrTuple &Tuple) override {
    Span S(SpanName::LeapConsume);
    Inner.consume(Tuple);
  }
  void consumeBatch(std::span<const core::OrTuple> Batch) override {
    Span S(SpanName::LeapConsume);
    Inner.consumeBatch(Batch);
  }
  void finish() override {
    Span S(SpanName::LeapFinish);
    Inner.finish();
  }

private:
  leap::LeapProfiler &Inner;
};

double frac(uint64_t Num, uint64_t Den) {
  return Den ? static_cast<double>(Num) / static_cast<double>(Den) : 0.0;
}

} // namespace

int orpbench::runTraced(const WorkloadSpec &W, const std::string &Dir,
                        const std::string &SpansPath) {
  const SessionSpec &S = W.Sessions.front();
  Outcome O;
  traceio::TraceReader Reader;
  std::vector<uint8_t> RefOmsg, RefLeap;
  if (!Reader.open(artifactPath(Dir, S.Workload, "orpt")) ||
      !readFile(artifactPath(Dir, S.Workload, "omsg"), RefOmsg) ||
      !readFile(artifactPath(Dir, S.Workload, "leap"), RefLeap)) {
    std::fprintf(stderr, "orpbench traced: missing set-up output in %s: %s\n",
                 Dir.c_str(), Reader.error().c_str());
    return 1;
  }
  const size_t NumBlocks = Reader.numEventBlocks();
  const unsigned Threads = S.Threads;

  double T0 = nowSeconds();
  core::ProfilingSession Core(
      static_cast<memsim::AllocPolicy>(Reader.info().AllocPolicy),
      Reader.info().Seed);
  for (const trace::InstrInfo &Info : Reader.instructions())
    Core.registry().addInstruction(Info.Name, Info.Kind);
  for (const trace::AllocSiteInfo &Info : Reader.allocSites())
    Core.registry().addAllocSite(Info.Name, Info.TypeName);
  std::unique_ptr<TracedWhomp> Whomp;
  std::unique_ptr<leap::LeapProfiler> Leap;
  std::unique_ptr<TimedLeap> LeapTimer;
  if (S.Whomp) {
    Whomp = std::make_unique<TracedWhomp>(Threads);
    Core.addConsumer(Whomp.get());
  }
  if (S.Leap) {
    Leap = std::make_unique<leap::LeapProfiler>(
        session::SessionConfig().MaxLmads, Threads);
    LeapTimer = std::make_unique<TimedLeap>(*Leap);
    Core.addConsumer(LeapTimer.get());
  }

  uint64_t Events = 0, BlocksDone = 0;
  auto Inject = [&](const traceio::DecodedBlock &Block) {
    Span T(SpanName::OmcTranslate);
    Events += traceio::injectDecodedBlock(Core.memory(), Block);
    ++BlocksDone;
  };
  bool DecodeOk = true;
  if (Threads <= 1) {
    traceio::DecodedBlock Block;
    for (size_t B = 0; B != NumBlocks && DecodeOk; ++B) {
      Span PerBlock(SpanName::SessionInject);
      {
        Span D(SpanName::TraceioDecode);
        DecodeOk = Reader.decodeBlockColumns(B, Block);
      }
      if (DecodeOk)
        Inject(Block);
    }
  } else {
    // Decode-ahead, as TraceReplayer does with more than one thread.
    support::SpscQueue<traceio::DecodedBlock> Decoded(2);
    support::ScopedThread Decoder([&] {
      traceio::DecodedBlock Block;
      for (size_t B = 0; B != NumBlocks; ++B) {
        bool Ok;
        {
          Span D(SpanName::TraceioDecode);
          Ok = Reader.decodeBlockColumns(B, Block);
        }
        if (!Ok) {
          DecodeOk = false;
          break;
        }
        if (!Decoded.push(std::move(Block)))
          break;
        Block = traceio::DecodedBlock();
      }
      Decoded.close();
    });
    traceio::DecodedBlock Block;
    while (Decoded.pop(Block)) {
      Span PerBlock(SpanName::SessionInject);
      Inject(Block);
    }
    Decoder.join();
  }

  std::vector<std::vector<uint8_t>> Images(kNumDims);
  std::vector<std::vector<uint64_t>> Streams(kNumDims);
  std::vector<whomp::ObjectAux> Aux;
  std::vector<uint8_t> LeapBytes;
  leap::LeapProfileData LeapData;
  {
    Span F(SpanName::SessionFinalize);
    Core.finish();
    if (Whomp) {
      // The work of OmsgArchive::build(Profiler, &Omc).serialize().
      Span Ser(SpanName::WhompSerialize);
      for (size_t D = 0; D != kNumDims; ++D) {
        Images[D] = Whomp->dimension(D).grammar().serialize();
        Streams[D] = Whomp->dimension(D).grammar().expandAll();
      }
      for (const auto &Rec : Core.omc().records())
        Aux.push_back(whomp::ObjectAux{Rec.Group, Rec.Serial, Rec.Size,
                                       Rec.AllocTime, Rec.FreeTime});
    }
    if (Leap) {
      Span Ser(SpanName::LeapSerialize);
      LeapData = leap::LeapProfileData::fromProfiler(*Leap);
      LeapBytes = LeapData.serialize();
    }
  }
  double T1 = nowSeconds();
  const double WallNs = (T1 - T0) * 1e9;

  // Correctness against the set-up reference.
  O.Attempted += NumBlocks;
  O.Failed += NumBlocks - BlocksDone;
  O.check(DecodeOk, "traced replay: " + Reader.error());
  O.check(LeapBytes == RefLeap, "traced LEAP artifact differs");
  uint64_t ProfileBytes = LeapBytes.size();
  if (Whomp) {
    whomp::OmsgArchive Ref;
    std::string Err;
    bool RefOk = whomp::OmsgArchive::deserialize(RefOmsg, Ref, Err) &&
                 Ref.grammarImages().size() == kNumDims;
    O.check(RefOk, "reference OMSG unreadable: " + Err);
    for (size_t D = 0; D != kNumDims; ++D) {
      std::string Dim = core::dimensionName(kDims[D]);
      O.check(RefOk && Images[D] == Ref.grammarImages()[D],
              "traced " + Dim + " grammar image differs");
      O.check(Streams[D] == Whomp->dimension(D).captured(),
              "expanded " + Dim + " grammar differs from its input stream");
    }
    O.check(RefOk && Aux == Ref.objects(), "traced object table differs");
    ProfileBytes += RefOmsg.size();
  } else {
    O.check(RefOmsg.empty(), "reference has an OMSG artifact");
  }

  if (!writeSpans(SpansPath))
    O.check(false, "cannot write " + SpansPath);

  SpanTotals All = spanTotals(/*CallerOnly=*/false);
  SpanTotals Main = spanTotals(/*CallerOnly=*/true);
  uint64_t MainSelf = 0;
  for (uint64_t Ns : Main.SelfNs)
    MainSelf += Ns;
  const double Ev = static_cast<double>(Events ? Events : 1);

  JsonObject J;
  J.add("wall_s", T1 - T0);
  J.add("events", Events);
  J.add("profile_bytes", ProfileBytes);
  J.add("traceio.decode_ns_per_event",
        All.self(SpanName::TraceioDecode) / Ev);
  J.add("traceio.bytes_per_event",
        static_cast<double>(Reader.info().FileBytes) / Ev);
  J.add("omc.translate_ns_per_event", All.self(SpanName::OmcTranslate) / Ev);
  const omc::OmcStats &OS = Core.omc().stats();
  uint64_t Lookups = OS.Translations + OS.Misses;
  J.add("omc.mru_hit_frac", frac(OS.MruHits, Lookups));
  J.add("omc.shared_hit_frac", frac(OS.SharedCacheHits, Lookups));
  J.add("omc.page_hit_frac", frac(OS.PageHits, Lookups));
  J.add("omc.tree_lookup_frac",
        frac(Lookups - OS.MruHits - OS.SharedCacheHits - OS.PageHits,
             Lookups));
  if (Whomp) {
    uint64_t Pushes = 0, Stalls = 0;
    std::vector<support::WorkerTelemetry> WT = Whomp->workerTelemetry();
    for (size_t D = 0; D != kNumDims; ++D) {
      const sequitur::SequiturGrammar &G = Whomp->dimension(D).grammar();
      std::string P = std::string("sequitur.") + core::dimensionName(kDims[D]);
      J.add(P + ".ns_per_symbol",
            frac(All.total(kSequiturSpan[D]), G.inputLength()));
      J.add(P + ".body_symbols", static_cast<uint64_t>(G.totalBodySymbols()));
      J.add(P + ".rules", static_cast<uint64_t>(G.numRules()));
      if (D < WT.size()) {
        J.add(std::string("whomp.worker.") + core::dimensionName(kDims[D]) +
                  ".busy_frac",
              WT[D].BusyNanos / WallNs);
        Pushes += WT[D].Queue.Pushes;
        Stalls += WT[D].Queue.PushStalls;
      }
    }
    if (!WT.empty())
      J.add("whomp.producer_wait_frac", frac(Stalls, Pushes));
    J.add("whomp.consume_ns_per_tuple",
          frac(All.self(SpanName::WhompConsume), Whomp->tuples()));
    J.add("whomp.serialize_ms", All.total(SpanName::WhompSerialize) / 1e6);
  }
  if (Leap) {
    J.add("leap.consume_ns_per_tuple",
          frac(All.self(SpanName::LeapConsume), Leap->tuplesSeen()));
    J.add("leap.serialize_ms", All.total(SpanName::LeapSerialize) / 1e6);
    J.add("leap.substreams",
          static_cast<uint64_t>(LeapData.substreams().size()));
    J.add("leap.captured_access_frac", Leap->accessesCapturedPercent() / 100);
  }
  J.add("session.inject_ns_per_event", All.total(SpanName::SessionInject) / Ev);
  J.add("session.finalize_ms", All.total(SpanName::SessionFinalize) / 1e6);
  // Share of wall the replaying thread spent inside a layer's span.
  J.add("bench.layer_coverage_frac", MainSelf / WallNs);
  O.addTo(J);
  std::printf("%s\n", J.str().c_str());
  return 0;
}
