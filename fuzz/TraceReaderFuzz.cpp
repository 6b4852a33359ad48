//===- fuzz/TraceReaderFuzz.cpp - TraceReader on malformed .orpt ---------===//
//
// Property: TraceReader must reject or cleanly parse ANY byte string —
// no crash, no sanitizer report, no unbounded work. A parse that
// succeeds must also decode every event without tripping the hardened
// varint layer. Seeds are real .orpt images — a v2 trace recorded by
// TraceWriter and its checked-in v1 counterpart (tests/fixtures) — so
// mutations explore the format's interior, not just the header checks.
//
//===----------------------------------------------------------------------===//

#include "FuzzTarget.h"

#include "memsim/Allocator.h"
#include "trace/Events.h"
#include "trace/InstructionRegistry.h"
#include "traceio/TraceReader.h"
#include "traceio/TraceWriter.h"

#include <cstdio>
#include <filesystem>
#include <fstream>

using namespace orp;

extern "C" int LLVMFuzzerTestOneInput(const uint8_t *Data, size_t Size) {
  traceio::TraceReader Reader;
  std::vector<uint8_t> Image(Data, Data + Size);
  if (!Reader.openImage(std::move(Image), "fuzz-input")) {
    // Rejected inputs must carry a diagnostic.
    ORP_FUZZ_REQUIRE(!Reader.error().empty(),
                     "rejected image without an error message");
    return 0;
  }
  std::vector<traceio::TraceEvent> Events;
  if (!Reader.readAllEvents(Events))
    ORP_FUZZ_REQUIRE(!Reader.error().empty(),
                     "failed decode without an error message");
  return 0;
}

/// Records a small synthetic probe stream through the real writer and
/// returns the file's bytes. tests/fixtures/fuzz_seed_v1.orpt holds the
/// same stream in format v1.
static std::vector<uint8_t> recordSeedTrace() {
  std::string Path =
      (std::filesystem::temp_directory_path() / "orp-tracereader-fuzz-seed.orpt")
          .string();
  trace::InstructionRegistry Registry;
  trace::InstrId Load = Registry.addInstruction("fuzz: load", trace::AccessKind::Load);
  trace::InstrId Store =
      Registry.addInstruction("fuzz: store", trace::AccessKind::Store);
  trace::AllocSiteId Site = Registry.addAllocSite("fuzz: alloc", "struct fz");
  {
    traceio::TraceWriter Writer(Path, Registry, memsim::AllocPolicy::FirstFit,
                                /*Seed=*/42, /*BlockBytes=*/128);
    uint64_t Time = 0;
    Writer.onAlloc({Site, /*Addr=*/0x1000, /*Size=*/64, ++Time,
                    /*IsStatic=*/false});
    std::vector<trace::AccessEvent> Accesses;
    for (uint64_t I = 0; I != 40; ++I) {
      Accesses.push_back({(I & 1) ? Store : Load, 0x1000 + (I % 8) * 8,
                          /*Size=*/8, /*IsStore=*/(I & 1) != 0, ++Time});
    }
    Writer.onAccessBatch(Accesses);
    Writer.onFree({0x1000, ++Time});
    Writer.onFinish();
  }
  std::ifstream In(Path, std::ios::binary);
  std::vector<uint8_t> Bytes((std::istreambuf_iterator<char>(In)),
                             std::istreambuf_iterator<char>());
  In.close();
  std::remove(Path.c_str());
  return Bytes;
}

std::vector<std::vector<uint8_t>> orpFuzzSeedInputs() {
  std::vector<std::vector<uint8_t>> Seeds;
  // One seed per on-disk encoding, so mutations explore both the v1
  // interleaved record interior and the v2 column directory.
  Seeds.push_back(fuzz::readFixture("fuzz_seed_v1.orpt"));
  Seeds.push_back(recordSeedTrace());
  // Degenerate seeds: empty input, bare magic, magic + junk version.
  Seeds.push_back({});
  Seeds.push_back({'O', 'R', 'P', 'T'});
  Seeds.push_back({'O', 'R', 'P', 'T', 0xff, 0, 0, 0});
  return Seeds;
}
