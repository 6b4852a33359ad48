//===- support/ByteCursor.h - Checked reads of untrusted bytes --*- C++ -*-===//
//
// Part of the ORP reproduction of "Exposing Memory Access Regularities
// Using Object-Relative Memory Profiling" (CGO 2004).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one bounds-checked reader behind every parser of untrusted
/// bytes: the framed artifacts (support/ArtifactFrame.h), the
/// orp-traced wire payloads and the .orpt registry payload. Every read
/// checks the bytes that remain, every LEB128 read rejects truncated,
/// overflowing and overlong encodings, and the first failure is latched
/// into the caller's error string as
///
///   "<format>: <field>: <reason>"     (a read failed)
///   "<format>: <message>"             (a semantic check failed)
///
/// so a parser states only its schema and its semantic checks. After a
/// failure the cursor sits at the end of its buffer: every later read
/// fails too, without overwriting the first error.
///
//===----------------------------------------------------------------------===//

#ifndef ORP_SUPPORT_BYTECURSOR_H
#define ORP_SUPPORT_BYTECURSOR_H

#include "support/VarInt.h"

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace orp {
namespace support {

/// A read position over a byte buffer it does not own. \p Data,
/// \p Format and \p Err must outlive the cursor.
class ByteCursor {
public:
  ByteCursor(const uint8_t *Data, size_t Size, std::string_view Format,
             std::string &Err)
      : Data(Data), Size(Size), Format(Format), Err(Err) {}

  /// Bytes consumed so far.
  size_t pos() const { return Pos; }
  size_t remaining() const { return Size - Pos; }
  bool failed() const { return Failed; }

  /// Latches "<format>: <Msg>" unless an error is already latched.
  /// Always returns false, so parsers can `return C.fail(...)`.
  bool fail(std::string_view Msg) {
    if (!Failed) {
      Failed = true;
      Err.assign(Format).append(": ").append(Msg);
    }
    Pos = Size;
    return false;
  }

  /// Latches "<format>: <Field>: <Reason>".
  bool fail(const char *Field, std::string_view Reason) {
    return fail(std::string(Field).append(": ").append(Reason));
  }

  [[nodiscard]] bool readU(const char *Field, uint64_t &Value) {
    VarIntStatus S = decodeULEB128Checked(Data, Size, Pos, Value);
    return S == VarIntStatus::Ok || failVarInt(Field, S);
  }

  [[nodiscard]] bool readS(const char *Field, int64_t &Value) {
    VarIntStatus S = decodeSLEB128Checked(Data, Size, Pos, Value);
    return S == VarIntStatus::Ok || failVarInt(Field, S);
  }

  [[nodiscard]] bool readByte(const char *Field, uint8_t &Value) {
    if (Pos == Size)
      return fail(Field, "truncated");
    Value = Data[Pos++];
    return true;
  }

  /// Reads one byte that must be 0 or 1.
  [[nodiscard]] bool readFlag(const char *Field, bool &Value) {
    uint8_t B = 0;
    if (!readByte(Field, B))
      return false;
    if (B > 1)
      return fail(Field, "bad flag");
    Value = B != 0;
    return true;
  }

  /// Reads a fixed-width little-endian integer of sizeof(T) bytes.
  template <typename T> [[nodiscard]] bool readLE(const char *Field, T &Value) {
    const uint8_t *P = nullptr;
    if (!readBytes(Field, sizeof(T), P))
      return false;
    Value = 0;
    for (size_t I = 0; I != sizeof(T); ++I)
      Value |= static_cast<T>(P[I]) << (8 * I);
    return true;
  }

  /// Consumes \p N bytes and points \p Out at them (inside the buffer).
  [[nodiscard]] bool readBytes(const char *Field, uint64_t N,
                               const uint8_t *&Out) {
    if (N > remaining())
      return fail(Field, "truncated");
    Out = Data + Pos;
    Pos += static_cast<size_t>(N);
    return true;
  }

  /// Reads a ULEB128 length followed by that many bytes.
  [[nodiscard]] bool readLenBytes(const char *Field,
                                  std::vector<uint8_t> &Out) {
    uint64_t Len = 0;
    const uint8_t *P = nullptr;
    if (!readU(Field, Len) || !readBytes(Field, Len, P))
      return false;
    Out.assign(P, P + Len);
    return true;
  }

  /// Reads a ULEB128 length followed by that many characters.
  [[nodiscard]] bool readString(const char *Field, std::string &Out) {
    uint64_t Len = 0;
    const uint8_t *P = nullptr;
    if (!readU(Field, Len) || !readBytes(Field, Len, P))
      return false;
    Out.assign(reinterpret_cast<const char *>(P), Len);
    return true;
  }

  /// Rejects a declared item count that the remaining bytes cannot hold
  /// at \p MinBytesPerItem bytes each, before anything is sized from
  /// it. The one item of slack only decides which error an
  /// almost-plausible count reports, never whether the input parses.
  [[nodiscard]] bool checkCount(const char *Field, uint64_t N,
                                size_t MinBytesPerItem) {
    if (Failed)
      return false;
    if (N > remaining() / MinBytesPerItem + 1)
      return fail(Field, std::to_string(N) + " exceeds remaining bytes");
    return true;
  }

  /// Fails with "trailing bytes" unless the whole buffer was consumed.
  [[nodiscard]] bool expectEnd() {
    if (Failed)
      return false;
    return Pos == Size || fail("trailing bytes");
  }

private:
  bool failVarInt(const char *Field, VarIntStatus S) {
    return fail(Field, std::string(varIntStatusName(S)) + " varint");
  }

  const uint8_t *Data;
  size_t Size;
  size_t Pos = 0;
  bool Failed = false;
  std::string_view Format;
  std::string &Err;
};

/// Appends a ULEB128 length followed by \p Bytes: the encoding
/// readString and readLenBytes read back.
inline void appendLenPrefixed(std::string_view Bytes,
                              std::vector<uint8_t> &Out) {
  encodeULEB128(Bytes.size(), Out);
  Out.insert(Out.end(), Bytes.begin(), Bytes.end());
}

inline void appendLenPrefixed(const std::vector<uint8_t> &Bytes,
                              std::vector<uint8_t> &Out) {
  encodeULEB128(Bytes.size(), Out);
  Out.insert(Out.end(), Bytes.begin(), Bytes.end());
}

} // namespace support
} // namespace orp

#endif // ORP_SUPPORT_BYTECURSOR_H
