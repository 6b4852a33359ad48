//===- support/ArtifactFrame.h - Common artifact header ---------*- C++ -*-===//
//
// Part of the ORP reproduction of "Exposing Memory Access Regularities
// Using Object-Relative Memory Profiling" (CGO 2004).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The header every framed artifact shares — .leap, .omsa, .omst,
/// .orpa and the ORCK session checkpoint:
///
///   [magic 4][version u8][CRC-32 of the payload, LE u32][payload...]
///
/// Writers bracket their payload with beginFrame/sealFrame; readers
/// call openFrame, which checks the header and hands back a ByteCursor
/// over the payload. The checks run in a fixed order — truncated
/// header, bad magic, unsupported format version, checksum mismatch —
/// and report through the cursor's error format, so every artifact
/// rejects a damaged header with the same words.
///
//===----------------------------------------------------------------------===//

#ifndef ORP_SUPPORT_ARTIFACTFRAME_H
#define ORP_SUPPORT_ARTIFACTFRAME_H

#include "support/ByteCursor.h"

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace orp {
namespace support {

/// Bytes before the payload: magic, version, payload CRC.
constexpr size_t kFrameHeaderSize = 4 + 1 + 4;

/// Starts an artifact image in the empty \p Out: the magic, the version
/// and a CRC placeholder that sealFrame patches.
void beginFrame(const char (&Magic)[4], uint8_t Version,
                std::vector<uint8_t> &Out);

/// Completes the image begun by beginFrame: stores the CRC-32 of every
/// byte after the header.
void sealFrame(std::vector<uint8_t> &Out);

/// Checks the header of the untrusted image \p Bytes against \p Magic
/// and the exact \p Version, and verifies the payload CRC. Returns a
/// cursor over the payload whose errors are prefixed by \p Format; on a
/// bad header the cursor is already failed() with the reason in \p Err.
/// \p Bytes, \p Format and \p Err must outlive the cursor.
ByteCursor openFrame(const std::vector<uint8_t> &Bytes,
                     const char (&Magic)[4], uint8_t Version,
                     std::string_view Format, std::string &Err);

} // namespace support
} // namespace orp

#endif // ORP_SUPPORT_ARTIFACTFRAME_H
