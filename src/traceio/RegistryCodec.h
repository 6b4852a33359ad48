//===- traceio/RegistryCodec.h - Probe-table payload codec -----*- C++ -*-===//
//
// Part of the ORP reproduction of "Exposing Memory Access Regularities
// Using Object-Relative Memory Profiling" (CGO 2004).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Encoder/decoder for the .orpt registry *payload* — the instruction
/// and allocation-site tables that give event ids their names. The same
/// byte layout travels inside a trace file's registry section
/// (TraceWriter/TraceReader) and inside an OPEN frame of the orp-traced
/// wire protocol (src/session), so a session opened over the wire names
/// its probe sites identically to one replayed from disk.
///
/// Layout: uleb numInstrs, then per instruction {uleb nameLen, name,
/// u8 kind}; uleb numSites, then per site {uleb nameLen, name,
/// uleb typeLen, type}. Framing (section kind, length, CRC) is the
/// carrier's business, not this codec's.
///
//===----------------------------------------------------------------------===//

#ifndef ORP_TRACEIO_REGISTRYCODEC_H
#define ORP_TRACEIO_REGISTRYCODEC_H

#include "support/ByteCursor.h"
#include "trace/InstructionRegistry.h"

#include <cstdint>
#include <vector>

namespace orp {
namespace traceio {

/// Appends the registry-payload encoding of \p Registry to \p Out.
void appendRegistryPayload(const trace::InstructionRegistry &Registry,
                           std::vector<uint8_t> &Out);

/// Appends the registry-payload encoding of already-extracted tables
/// (e.g. TraceReader::instructions()/allocSites()) to \p Out.
void appendRegistryPayload(const std::vector<trace::InstrInfo> &Instrs,
                           const std::vector<trace::AllocSiteInfo> &Sites,
                           std::vector<uint8_t> &Out);

/// Parses one registry payload, which runs to the end of \p C, into
/// \p Instrs / \p Sites (replacing their contents). Returns false with
/// the diagnostic latched in \p C on malformed input; the cursor's
/// format label names the carrier ("registry section at byte N",
/// "OPEN frame").
[[nodiscard]] bool parseRegistryPayload(support::ByteCursor &C,
                                        std::vector<trace::InstrInfo> &Instrs,
                                        std::vector<trace::AllocSiteInfo> &Sites);

} // namespace traceio
} // namespace orp

#endif // ORP_TRACEIO_REGISTRYCODEC_H
