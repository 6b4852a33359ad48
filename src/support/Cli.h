//===- support/Cli.h - Shared command-line helpers --------------*- C++ -*-===//
//
// Part of the ORP reproduction of "Exposing Memory Access Regularities
// Using Object-Relative Memory Profiling" (CGO 2004).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The flag and artifact-file helpers every command-line front end
/// (orp-trace, orp-advise, orp-traced, the examples) shares. Each
/// diagnostic names the tool, or the tool and verb, it is given, so a
/// tool's messages read the same as when it carried its own copy.
///
//===----------------------------------------------------------------------===//

#ifndef ORP_SUPPORT_CLI_H
#define ORP_SUPPORT_CLI_H

#include <cstdint>
#include <string>
#include <vector>

namespace orp {
namespace support {

/// Returns the text after \p Prefix when \p Arg starts with it (the
/// value of a `--flag=` argument), else nullptr.
[[nodiscard]] const char *flagValue(const std::string &Arg,
                                    const char *Prefix);

/// Parses the value of \p Flag strictly (see parseUint64). On malformed
/// text logs "<Who>: <Flag> expects an unsigned integer, got '<Text>'"
/// and returns false; \p Who is the tool, or the tool and its verb.
[[nodiscard]] bool numericFlag(const char *Who, const char *Flag,
                               const char *Text, uint64_t &Out);

/// Like the uint64_t overload, range-checked into unsigned.
[[nodiscard]] bool numericFlag(const char *Who, const char *Flag,
                               const char *Text, unsigned &Out);

/// Reads the whole file \p Path into \p Bytes, logging
/// "<Tool>: cannot read '<Path>'" (or "error reading") on failure.
[[nodiscard]] bool readArtifactFile(const char *Tool, const std::string &Path,
                                    std::vector<uint8_t> &Bytes);

/// Writes already-serialized artifact bytes to \p Path, logging
/// "<Tool>: cannot write '<Path>'" on failure.
[[nodiscard]] bool writeArtifactFile(const char *Tool,
                                     const std::string &Path,
                                     const std::vector<uint8_t> &Bytes);

} // namespace support
} // namespace orp

#endif // ORP_SUPPORT_CLI_H
