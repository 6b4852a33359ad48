//===- session/Client.cpp - orp-traced client ----------------------------===//

#include "session/Client.h"


#include <cerrno>
#include <cstring>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace orp;
using namespace orp::session;

namespace {

/// EVENTS frames allowed in flight before waiting for acks. Small: the
/// point is to overlap the socket with the daemon's shards, not to
/// buffer the trace client-side.
constexpr size_t kAckWindow = 4;

} // namespace

Client::~Client() { disconnect(); }

void Client::disconnect() {
  if (Fd >= 0) {
    ::close(Fd);
    Fd = -1;
  }
  Parser = FrameParser();
}

bool Client::connect(const std::string &SocketPath, std::string &Err) {
  disconnect();
  sockaddr_un Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  if (SocketPath.empty() || SocketPath.size() >= sizeof(Addr.sun_path)) {
    Err = "socket path too long: '" + SocketPath + "'";
    return false;
  }
  std::memcpy(Addr.sun_path, SocketPath.c_str(), SocketPath.size() + 1);
  Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0) {
    Err = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) !=
      0) {
    Err = "cannot connect to '" + SocketPath +
          "': " + std::strerror(errno);
    disconnect();
    return false;
  }
  return true;
}

bool Client::sendFrame(FrameType Type, const std::vector<uint8_t> &Payload,
                       std::string &Err) {
  std::vector<uint8_t> Wire;
  appendFrame(Type, Payload, Wire);
  size_t Sent = 0;
  while (Sent < Wire.size()) {
    ssize_t N = ::send(Fd, Wire.data() + Sent, Wire.size() - Sent,
                       MSG_NOSIGNAL);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      Err = std::string("send: ") + std::strerror(errno);
      return false;
    }
    Sent += static_cast<size_t>(N);
  }
  return true;
}

bool Client::recvFrame(Frame &Out, std::string &Err) {
  for (;;) {
    if (Parser.next(Out))
      return true;
    if (Parser.failed()) {
      Err = Parser.error();
      return false;
    }
    uint8_t Buf[64 * 1024];
    ssize_t N = ::recv(Fd, Buf, sizeof(Buf), 0);
    if (N > 0) {
      Parser.feed(Buf, static_cast<size_t>(N));
      continue;
    }
    if (N < 0 && errno == EINTR)
      continue;
    Err = N == 0 ? "daemon closed the connection"
                 : std::string("recv: ") + std::strerror(errno);
    return false;
  }
}

bool Client::recvReply(FrameType Expected, Frame &Out, std::string &Err) {
  if (!recvFrame(Out, Err))
    return false;
  if (Out.Type == FrameType::ReplyErr) {
    Err.assign(Out.Payload.begin(), Out.Payload.end());
    return false;
  }
  if (Out.Type != Expected) {
    Err = "unexpected reply type " +
          std::to_string(static_cast<unsigned>(Out.Type));
    return false;
  }
  return true;
}

bool Client::openSession(const OpenRequest &Req, uint64_t &IdOut,
                         std::string &Err) {
  std::vector<uint8_t> Payload;
  encodeOpen(Req, Payload);
  if (!sendFrame(FrameType::Open, Payload, Err))
    return false;
  Frame Reply;
  if (!recvReply(FrameType::ReplyOk, Reply, Err))
    return false;
  return decodeSessionId(Reply.Payload.data(), Reply.Payload.size(),
                         "OPEN reply", IdOut, Err);
}

bool Client::submitBlock(uint64_t Id,
                         const traceio::TraceReader::RawBlock &B,
                         uint8_t FormatVersion, std::string &Err) {
  std::vector<uint8_t> Payload;
  encodeEventsHeader(Id, B.EventCount, FormatVersion, B.Crc, Payload);
  Payload.insert(Payload.end(), B.Payload, B.Payload + B.PayloadLen);
  if (!sendFrame(FrameType::Events, Payload, Err))
    return false;
  Frame Reply;
  return recvReply(FrameType::ReplyOk, Reply, Err);
}

bool Client::submitTrace(uint64_t Id, traceio::TraceReader &Reader,
                         std::string &Err) {
  size_t InFlight = 0;
  auto AwaitAck = [&]() -> bool {
    Frame Reply;
    if (!recvReply(FrameType::ReplyOk, Reply, Err))
      return false;
    --InFlight;
    return true;
  };
  for (size_t I = 0; I != Reader.numEventBlocks(); ++I) {
    traceio::TraceReader::RawBlock B = Reader.rawBlock(I);
    std::vector<uint8_t> Payload;
    // The trace's own format version rides along: the daemon decodes
    // the forwarded bytes exactly as a local replay would.
    encodeEventsHeader(Id, B.EventCount, Reader.info().Version, B.Crc,
                       Payload);
    Payload.insert(Payload.end(), B.Payload, B.Payload + B.PayloadLen);
    if (InFlight == kAckWindow && !AwaitAck())
      return false;
    if (!sendFrame(FrameType::Events, Payload, Err))
      return false;
    ++InFlight;
  }
  while (InFlight)
    if (!AwaitAck())
      return false;
  return true;
}

bool Client::snapshot(uint8_t Format, const std::string &SessionName,
                      std::string &TextOut, std::string &Err) {
  SnapshotRequest Req;
  Req.Format = Format;
  Req.SessionName = SessionName;
  std::vector<uint8_t> Payload;
  encodeSnapshot(Req, Payload);
  if (!sendFrame(FrameType::Snapshot, Payload, Err))
    return false;
  Frame Reply;
  if (!recvReply(FrameType::ReplySnapshot, Reply, Err))
    return false;
  TextOut.assign(Reply.Payload.begin(), Reply.Payload.end());
  return true;
}

bool Client::closeSession(uint64_t Id, CloseSummary &Out, std::string &Err) {
  std::vector<uint8_t> Payload;
  encodeSessionId(Id, Payload);
  if (!sendFrame(FrameType::Close, Payload, Err))
    return false;
  Frame Reply;
  if (!recvReply(FrameType::ReplyOk, Reply, Err))
    return false;
  return decodeCloseSummary(Reply.Payload.data(), Reply.Payload.size(), Out,
                            Err);
}
