//===- support/ArtifactFrame.cpp - Common artifact header ----------------===//

#include "support/ArtifactFrame.h"

#include "support/Checksum.h"
#include "support/Endian.h"

#include <algorithm>
#include <cassert>

using namespace orp;
using namespace orp::support;

void support::beginFrame(const char (&Magic)[4], uint8_t Version,
                         std::vector<uint8_t> &Out) {
  assert(Out.empty() && "a frame starts its own image");
  // Seed capacity past the header. Also keeps GCC 12's stringop-overflow
  // tracking from misreading the first tiny growth as an overflow.
  Out.reserve(64);
  Out.insert(Out.end(), Magic, Magic + 4);
  Out.push_back(Version);
  appendLE32(0, Out);
}

void support::sealFrame(std::vector<uint8_t> &Out) {
  uint32_t Crc =
      crc32(Out.data() + kFrameHeaderSize, Out.size() - kFrameHeaderSize);
  for (unsigned I = 0; I != 4; ++I)
    Out[5 + I] = static_cast<uint8_t>(Crc >> (8 * I));
}

ByteCursor support::openFrame(const std::vector<uint8_t> &Bytes,
                              const char (&Magic)[4], uint8_t Version,
                              std::string_view Format, std::string &Err) {
  if (Bytes.size() < kFrameHeaderSize) {
    ByteCursor C(Bytes.data(), 0, Format, Err);
    C.fail("truncated header");
    return C;
  }
  const uint8_t *Payload = Bytes.data() + kFrameHeaderSize;
  size_t Size = Bytes.size() - kFrameHeaderSize;
  ByteCursor C(Payload, Size, Format, Err);
  if (!std::equal(Magic, Magic + 4, Bytes.begin()))
    C.fail("bad magic");
  else if (Bytes[4] != Version)
    C.fail("unsupported format version " + std::to_string(Bytes[4]));
  else if (readLE32(Bytes.data() + 5) != crc32(Payload, Size))
    C.fail("checksum mismatch");
  return C;
}
