//===- session/Wire.cpp - orp-traced framed protocol ---------------------===//

#include "session/Wire.h"

#include "lmad/LmadCompressor.h"
#include "support/ByteCursor.h"
#include "support/Endian.h"
#include "support/VarInt.h"
#include "traceio/RegistryCodec.h"

using namespace orp;
using namespace orp::session;
using support::appendLenPrefixed;

void session::appendFrame(FrameType Type,
                          const std::vector<uint8_t> &Payload,
                          std::vector<uint8_t> &Out) {
  appendLE32(static_cast<uint32_t>(Payload.size() + 1), Out);
  Out.push_back(static_cast<uint8_t>(Type));
  Out.insert(Out.end(), Payload.begin(), Payload.end());
}

void FrameParser::feed(const uint8_t *Data, size_t Len) {
  Buf.insert(Buf.end(), Data, Data + Len);
}

bool FrameParser::next(Frame &Out) {
  if (!Err.empty())
    return false;
  // Compact the consumed prefix once it dominates the buffer, so a
  // long-lived connection does not grow its buffer without bound.
  if (Pos > 4096 && Pos * 2 > Buf.size()) {
    Buf.erase(Buf.begin(), Buf.begin() + static_cast<ptrdiff_t>(Pos));
    Pos = 0;
  }
  // A partial length prefix just means more bytes are on the way.
  if (Buf.size() - Pos < 4)
    return false;
  support::ByteCursor C(Buf.data() + Pos, Buf.size() - Pos, "frame", Err);
  uint32_t Length = 0;
  if (!C.readLE("length", Length))
    return false;
  if (Length == 0 || Length > kMaxFrameLength) {
    Err = "bad frame length " + std::to_string(Length);
    return false;
  }
  if (C.remaining() < Length)
    return false;
  Out.Type = static_cast<FrameType>(Buf[Pos + 4]);
  Out.Payload.assign(Buf.begin() + static_cast<ptrdiff_t>(Pos + 5),
                     Buf.begin() + static_cast<ptrdiff_t>(Pos + 4 + Length));
  Pos += 4u + Length;
  return true;
}

namespace {

constexpr uint8_t kProfilerWhomp = 1;
constexpr uint8_t kProfilerLeap = 2;

} // namespace

void session::encodeOpen(const OpenRequest &Req, std::vector<uint8_t> &Out) {
  appendLenPrefixed(Req.Name, Out);
  Out.push_back(static_cast<uint8_t>(Req.Config.Policy));
  appendLE64(Req.Config.Seed, Out);
  uint8_t Mask = (Req.Config.EnableWhomp ? kProfilerWhomp : 0) |
                 (Req.Config.EnableLeap ? kProfilerLeap : 0);
  Out.push_back(Mask);
  encodeULEB128(Req.Config.MaxLmads, Out);
  traceio::appendRegistryPayload(Req.Instrs, Req.Sites, Out);
}

bool session::decodeOpen(const uint8_t *Data, size_t Len, OpenRequest &Out,
                         std::string &Err) {
  support::ByteCursor C(Data, Len, "OPEN frame", Err);
  uint8_t Policy = 0, Mask = 0;
  uint64_t MaxLmads = 0;
  if (!C.readString("session name", Out.Name) ||
      !C.readByte("alloc policy", Policy) ||
      !C.readLE("seed", Out.Config.Seed) ||
      !C.readByte("profiler mask", Mask) ||
      !C.readU("descriptor cap", MaxLmads))
    return false;
  if (!memsim::isValidAllocPolicy(Policy))
    return C.fail("unknown allocation policy " + std::to_string(Policy));
  if (!lmad::LmadCompressor::isValidCap(MaxLmads))
    return C.fail("implausible descriptor cap " + std::to_string(MaxLmads));
  Out.Config.Policy = static_cast<memsim::AllocPolicy>(Policy);
  Out.Config.EnableWhomp = (Mask & kProfilerWhomp) != 0;
  Out.Config.EnableLeap = (Mask & kProfilerLeap) != 0;
  Out.Config.MaxLmads = static_cast<unsigned>(MaxLmads);
  return traceio::parseRegistryPayload(C, Out.Instrs, Out.Sites);
}

void session::encodeSessionId(uint64_t Id, std::vector<uint8_t> &Out) {
  encodeULEB128(Id, Out);
}

bool session::decodeSessionId(const uint8_t *Data, size_t Len,
                              const char *Format, uint64_t &Id,
                              std::string &Err) {
  support::ByteCursor C(Data, Len, Format, Err);
  return C.readU("session id", Id) && C.expectEnd();
}

void session::encodeEventsHeader(uint64_t SessionId, uint64_t EventCount,
                                 uint8_t FormatVersion, uint32_t Crc,
                                 std::vector<uint8_t> &Out) {
  encodeULEB128(SessionId, Out);
  encodeULEB128(EventCount, Out);
  Out.push_back(FormatVersion);
  appendLE32(Crc, Out);
}

bool session::decodeEventsHeader(const uint8_t *Data, size_t Len,
                                 EventsHeader &Out, std::string &Err) {
  support::ByteCursor C(Data, Len, "EVENTS frame", Err);
  if (!C.readU("session id", Out.SessionId) ||
      !C.readU("event count", Out.EventCount) ||
      !C.readByte("format version", Out.FormatVersion) ||
      !C.readLE("block crc", Out.Crc))
    return false;
  Out.PayloadOffset = C.pos();
  return true;
}

void session::encodeSnapshot(const SnapshotRequest &Req,
                             std::vector<uint8_t> &Out) {
  Out.push_back(Req.Format);
  appendLenPrefixed(Req.SessionName, Out);
}

bool session::decodeSnapshot(const uint8_t *Data, size_t Len,
                             SnapshotRequest &Out, std::string &Err) {
  support::ByteCursor C(Data, Len, "SNAPSHOT frame", Err);
  return C.readByte("format", Out.Format) &&
         C.readString("session name", Out.SessionName) && C.expectEnd();
}

void session::encodeCloseSummary(const CloseSummary &Summary,
                                 std::vector<uint8_t> &Out) {
  encodeULEB128(Summary.Events, Out);
  Out.push_back(Summary.Failed ? 1 : 0);
  appendLenPrefixed(Summary.Error, Out);
  appendLenPrefixed(Summary.Omsg, Out);
  appendLenPrefixed(Summary.Leap, Out);
}

bool session::decodeCloseSummary(const uint8_t *Data, size_t Len,
                                 CloseSummary &Out, std::string &Err) {
  support::ByteCursor C(Data, Len, "CLOSE reply", Err);
  return C.readU("event count", Out.Events) &&
         C.readFlag("failed flag", Out.Failed) &&
         C.readString("error", Out.Error) &&
         C.readLenBytes("omsg profile", Out.Omsg) &&
         C.readLenBytes("leap profile", Out.Leap) && C.expectEnd();
}
