//===- traceio/TraceReader.h - .orpt trace parsing -------------*- C++ -*-===//
//
// Part of the ORP reproduction of "Exposing Memory Access Regularities
// Using Object-Relative Memory Profiling" (CGO 2004).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Validating reader for .orpt traces. open() checks the magic, version,
/// header checksum, block framing, registry section and end marker;
/// decodeBlockColumns() decodes one block of either format version into
/// a DecodedBlock, verifying the block's CRC before touching its
/// payload, and forEachEvent() walks those blocks event by event. Trace
/// files are untrusted input: every failure mode (truncation, bit flips,
/// bad varints, trailing garbage) produces a clear error string instead
/// of an assert or undefined behavior.
///
//===----------------------------------------------------------------------===//

#ifndef ORP_TRACEIO_TRACEREADER_H
#define ORP_TRACEIO_TRACEREADER_H

#include "trace/InstructionRegistry.h"
#include "traceio/BlockCodec.h"
#include "traceio/TraceFormat.h"

#include <functional>
#include <string>
#include <vector>

namespace orp {
namespace traceio {

/// Parses and validates one .orpt file.
class TraceReader {
public:
  /// Loads \p Path and validates everything except event payload
  /// contents (those are checked checksum-first by decodeBlockColumns).
  /// Returns false with error() set on any problem.
  [[nodiscard]] bool open(const std::string &Path);

  /// Structural validation of an in-memory image; used by open() and by
  /// tests that corrupt images without touching disk.
  [[nodiscard]] bool openImage(std::vector<uint8_t> Image, const std::string &Name);

  /// Header metadata and file statistics. Valid after open().
  const TraceInfo &info() const { return Info; }

  /// The recorded probe-site tables, in registration order.
  const std::vector<trace::InstrInfo> &instructions() const {
    return Instrs;
  }
  const std::vector<trace::AllocSiteInfo> &allocSites() const {
    return Sites;
  }

  /// Decodes every event in delivery order into \p Fn, one whole block
  /// at a time. Returns false with error() set on a corrupted payload;
  /// the blocks before the corrupt one were delivered, nothing of the
  /// corrupt block was. Restartable (stateless).
  [[nodiscard]] bool forEachEvent(const std::function<void(const TraceEvent &)> &Fn);

  /// Number of indexed event blocks; valid after open().
  size_t numEventBlocks() const { return Blocks.size(); }

  /// Index-level statistics of one event block (no payload decode).
  struct BlockStats {
    uint64_t EventCount;  ///< Events declared by the block header.
    size_t PayloadBytes;  ///< Compressed payload size on disk.
  };

  /// Per-block statistics straight from the block index; valid after
  /// open(). Feeds `orp-trace info` without touching the payloads.
  std::vector<BlockStats> blockStats() const;

  /// Convenience: decodes the whole stream into a vector.
  [[nodiscard]] bool readAllEvents(std::vector<TraceEvent> &Out);

  /// Decodes block \p Index (CRC-checked first) of either format version
  /// into \p Out, replacing its contents — see traceio::DecodedBlock.
  /// Blocks are independently decodable — the writer restarts the
  /// address/time delta chains per block — which is what lets
  /// ProfileSession::replayFrom decode block N+1 on a worker while
  /// block N is being injected. \p Index must be in range. Returns
  /// false with error() set and \p Out empty on corruption.
  [[nodiscard]] bool decodeBlockColumns(size_t Index, DecodedBlock &Out);

  /// A still-encoded view of one event block, for forwarding the
  /// payload verbatim — e.g. as an EVENTS frame of the orp-traced wire
  /// protocol. The pointer aliases the reader's image and is valid
  /// until the next open()/openImage(). \p Index must be in range.
  struct RawBlock {
    const uint8_t *Payload;
    size_t PayloadLen;
    uint64_t EventCount;
    uint32_t Crc;         ///< CRC-32 declared by the block header.
    uint64_t FileOffset;  ///< Absolute byte offset of the payload.
  };
  [[nodiscard]] RawBlock rawBlock(size_t Index) const;

  /// The first error encountered, or empty.
  const std::string &error() const { return Err; }

private:
  bool failed(const std::string &Msg);
  bool parseHeader();
  bool parseRegistry(uint64_t Offset);
  bool indexBlocks(uint64_t RegistryOffset);

  std::string Name;
  std::vector<uint8_t> Bytes;
  TraceInfo Info;
  std::vector<trace::InstrInfo> Instrs;
  std::vector<trace::AllocSiteInfo> Sites;

  /// One indexed event block: payload position/length and declared
  /// event count (CRC verified lazily in decodeBlockColumns).
  struct BlockRef {
    size_t PayloadPos;
    size_t PayloadLen;
    uint64_t EventCount;
    uint32_t Crc;
  };
  std::vector<BlockRef> Blocks;
  std::string Err;
};

} // namespace traceio
} // namespace orp

#endif // ORP_TRACEIO_TRACEREADER_H
