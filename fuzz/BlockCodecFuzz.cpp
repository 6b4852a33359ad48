//===- fuzz/BlockCodecFuzz.cpp - Event-block decode on malformed bytes ---===//
//
// Property: decodeEventBlock must reject or cleanly parse ANY payload of
// either .orpt format version — no crash, no sanitizer report, no
// partial output on failure. A successful decode must deliver exactly
// the declared event count, both in the DecodedBlock view and through
// the merge walk. Input layout: byte 0 selects the version (low bit
// clear: v1 interleaved records, set: v2 columns), byte 1 is the
// declared event count, the rest is the block payload — so the mutator
// exercises count/payload disagreements (truncated records and columns,
// column-length mismatches, overlong varints), not just byte noise.
// The v1 seeds are blocks cut from the checked-in fixture trace.
//
//===----------------------------------------------------------------------===//

#include "FuzzTarget.h"

#include "support/VarInt.h"
#include "traceio/BlockCodec.h"
#include "traceio/TraceReader.h"

#include <initializer_list>
#include <string>

using namespace orp;

extern "C" int LLVMFuzzerTestOneInput(const uint8_t *Data, size_t Size) {
  if (Size < 2)
    return 0;
  uint8_t Version = (Data[0] & 1) ? traceio::kFormatVersionV2
                                  : traceio::kFormatVersionV1;
  uint64_t EventCount = Data[1];
  const uint8_t *Payload = Data + 2;
  size_t Len = Size - 2;

  traceio::DecodedBlock Block;
  std::string Err;
  if (!traceio::decodeEventBlock(Version, Payload, Len, EventCount, Block,
                                 Err)) {
    ORP_FUZZ_REQUIRE(!Err.empty(), "failed decode without an error message");
    ORP_FUZZ_REQUIRE(Block.events() == 0, "failed decode left partial output");
    return 0;
  }
  ORP_FUZZ_REQUIRE(Block.events() == EventCount,
                   "decode delivered a different event count than declared");
  uint64_t Walked = 0;
  traceio::forEachDecodedEvent(
      Block, [&](const traceio::TraceEvent &) { ++Walked; });
  ORP_FUZZ_REQUIRE(Walked == EventCount,
                   "merge walk delivered a different event count");
  return 0;
}

namespace {

/// Selector bytes for the two versions.
constexpr uint8_t kV1 = 0, kV2 = 1;

/// Builds a v2 fuzz input from five pre-encoded columns.
std::vector<uint8_t> makeSeed(uint8_t EventCount,
                              std::initializer_list<std::vector<uint8_t>> Cols) {
  std::vector<uint8_t> Seed{kV2, EventCount};
  for (const std::vector<uint8_t> &Col : Cols) {
    encodeULEB128(Col.size(), Seed);
    Seed.insert(Seed.end(), Col.begin(), Col.end());
  }
  return Seed;
}

std::vector<uint8_t> uleb(std::initializer_list<uint64_t> Values) {
  std::vector<uint8_t> Out;
  for (uint64_t V : Values)
    encodeULEB128(V, Out);
  return Out;
}

std::vector<uint8_t> sleb(std::initializer_list<int64_t> Values) {
  std::vector<uint8_t> Out;
  for (int64_t V : Values)
    encodeSLEB128(V, Out);
  return Out;
}

/// Adds every block of the checked-in v1 fixture \p Name as a v1 seed.
void addFixtureBlocks(const char *Name,
                      std::vector<std::vector<uint8_t>> &Seeds) {
  traceio::TraceReader Reader;
  if (!Reader.openImage(fuzz::readFixture(Name), Name))
    ORP_FUZZ_REQUIRE(false, "v1 seed fixture does not parse");
  for (size_t B = 0; B != Reader.numEventBlocks(); ++B) {
    traceio::TraceReader::RawBlock Raw = Reader.rawBlock(B);
    ORP_FUZZ_REQUIRE(Raw.EventCount <= 0xff,
                     "v1 seed block holds too many events for one byte");
    std::vector<uint8_t> Seed{kV1, static_cast<uint8_t>(Raw.EventCount)};
    Seed.insert(Seed.end(), Raw.Payload, Raw.Payload + Raw.PayloadLen);
    Seeds.push_back(std::move(Seed));
  }
}

} // namespace

std::vector<std::vector<uint8_t>> orpFuzzSeedInputs() {
  std::vector<std::vector<uint8_t>> Seeds;
  // v1: the fixture's two blocks — one led by an alloc, one ending in a
  // free.
  addFixtureBlocks("fuzz_seed_v1.orpt", Seeds);
  // A valid 3-event block: access, alloc, free.
  Seeds.push_back(makeSeed(
      3, {{traceio::kOpAccess, traceio::kOpAlloc, traceio::kOpFree},
          uleb({5, 2}), sleb({0x1000, 0x1000, 0}), sleb({0, 1, 1}),
          uleb({4, 64})}));
  // A pure-access block with mixed tag bits (the batch fast path).
  Seeds.push_back(makeSeed(
      2, {{traceio::kOpAccess | traceio::kTagSize8,
           traceio::kOpAccess | traceio::kTagStore},
          uleb({1, 2}), sleb({0x2000, 8}), sleb({0, 1}), uleb({4})}));
  // Truncated size column: header declares a byte that isn't there.
  {
    std::vector<uint8_t> S = makeSeed(
        1, {{traceio::kOpAccess}, uleb({5}), sleb({16}), sleb({0}),
            uleb({4})});
    S.pop_back();
    Seeds.push_back(std::move(S));
  }
  // Kind column length disagrees with the declared event count.
  Seeds.push_back(
      makeSeed(4, {{traceio::kOpFree}, {}, sleb({16}), sleb({1}), {}}));
  // Overlong varint inside the id column.
  Seeds.push_back(makeSeed(
      1, {{traceio::kOpAccess}, {0x85, 0x00}, sleb({16}), sleb({0}),
          uleb({4})}));
  // Degenerate inputs: empty, selector only, count with no payload, lone
  // column header.
  Seeds.push_back({});
  Seeds.push_back({kV2});
  Seeds.push_back({kV1, 7});
  Seeds.push_back({kV2, 7});
  Seeds.push_back({kV2, 0, 0x80});
  return Seeds;
}
