//===- support/Cli.cpp - Shared command-line helpers ---------------------===//
//
// orp-lint: allow(endian-io): artifact files are opaque byte images;
// all field encoding happened inside their serialize().
//
//===----------------------------------------------------------------------===//

#include "support/Cli.h"

#include "support/LogSink.h"
#include "support/ParseNumber.h"

#include <cstdio>
#include <cstring>

using namespace orp;
using namespace orp::support;

const char *support::flagValue(const std::string &Arg, const char *Prefix) {
  size_t Len = std::strlen(Prefix);
  return Arg.compare(0, Len, Prefix) == 0 ? Arg.c_str() + Len : nullptr;
}

static bool badNumber(const char *Who, const char *Flag, const char *Text) {
  logMessage(LogLevel::Error, "%s: %s expects an unsigned integer, got '%s'",
             Who, Flag, Text);
  return false;
}

bool support::numericFlag(const char *Who, const char *Flag,
                          const char *Text, uint64_t &Out) {
  return parseUint64(Text, Out) || badNumber(Who, Flag, Text);
}

bool support::numericFlag(const char *Who, const char *Flag,
                          const char *Text, unsigned &Out) {
  return parseUnsigned(Text, Out) || badNumber(Who, Flag, Text);
}

bool support::readArtifactFile(const char *Tool, const std::string &Path,
                               std::vector<uint8_t> &Bytes) {
  std::FILE *In = std::fopen(Path.c_str(), "rb");
  if (!In) {
    logMessage(LogLevel::Error, "%s: cannot read '%s'", Tool, Path.c_str());
    return false;
  }
  uint8_t Buf[1 << 16];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), In)) != 0)
    Bytes.insert(Bytes.end(), Buf, Buf + N);
  bool Ok = !std::ferror(In);
  std::fclose(In);
  if (!Ok)
    logMessage(LogLevel::Error, "%s: error reading '%s'", Tool,
               Path.c_str());
  return Ok;
}

bool support::writeArtifactFile(const char *Tool, const std::string &Path,
                                const std::vector<uint8_t> &Bytes) {
  std::FILE *Out = std::fopen(Path.c_str(), "wb");
  bool Ok = Out && std::fwrite(Bytes.data(), 1, Bytes.size(), Out) ==
                       Bytes.size();
  // fclose flushes the stdio buffer: its failure loses the tail.
  if (Out && std::fclose(Out) != 0)
    Ok = false;
  if (!Ok)
    logMessage(LogLevel::Error, "%s: cannot write '%s'", Tool, Path.c_str());
  return Ok;
}
