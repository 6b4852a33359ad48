//===- trace/Events.cpp - Probe event stream and sinks -------------------===//

#include "trace/Events.h"

using namespace orp;
using namespace orp::trace;

TraceSink::~TraceSink() = default;

void TraceSink::onFinish() {}

void CountingSink::onAccessBatch(std::span<const AccessEvent> Events) {
  Accesses += Events.size();
  uint64_t BatchStores = 0;
  for (const AccessEvent &Event : Events)
    BatchStores += Event.IsStore ? 1 : 0;
  Stores += BatchStores;
  Loads += Events.size() - BatchStores;
}

void CountingSink::onAlloc(const AllocEvent &) { ++Allocs; }

void CountingSink::onFree(const FreeEvent &) { ++Frees; }

void BufferSink::onAccessBatch(std::span<const AccessEvent> Events) {
  AccessLog.insert(AccessLog.end(), Events.begin(), Events.end());
  for (size_t I = 0; I != Events.size(); ++I)
    AccessSeq.push_back(NextSeq++);
}

void BufferSink::onAlloc(const AllocEvent &Event) {
  AllocLog.push_back(Event);
  AllocSeq.push_back(NextSeq++);
}

void BufferSink::onFree(const FreeEvent &Event) {
  FreeLog.push_back(Event);
  FreeSeq.push_back(NextSeq++);
}

void BufferSink::replayTo(TraceSink &Sink) const {
  // Each log is sequence-sorted by construction, so a three-way merge on
  // the arrival sequence reproduces the original delivery order exactly.
  size_t AI = 0, LI = 0, FI = 0;
  while (AI < AccessLog.size() || LI < AllocLog.size() ||
         FI < FreeLog.size()) {
    uint64_t AS = AI < AccessSeq.size() ? AccessSeq[AI] : ~0ULL;
    uint64_t LS = LI < AllocSeq.size() ? AllocSeq[LI] : ~0ULL;
    uint64_t FS = FI < FreeSeq.size() ? FreeSeq[FI] : ~0ULL;
    if (LS < AS && LS < FS) {
      Sink.onAlloc(AllocLog[LI++]);
      continue;
    }
    if (FS < AS) {
      Sink.onFree(FreeLog[FI++]);
      continue;
    }
    // The accesses up to the next alloc/free go out as one batch.
    uint64_t Stop = LS < FS ? LS : FS;
    size_t End = AI + 1;
    while (End < AccessLog.size() && AccessSeq[End] < Stop)
      ++End;
    Sink.onAccessBatch(
        std::span<const AccessEvent>(AccessLog.data() + AI, End - AI));
    AI = End;
  }
  Sink.onFinish();
}
