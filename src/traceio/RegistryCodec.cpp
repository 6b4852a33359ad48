//===- traceio/RegistryCodec.cpp - Probe-table payload codec -------------===//

#include "traceio/RegistryCodec.h"

#include "support/VarInt.h"

using namespace orp;
using namespace orp::traceio;
using support::appendLenPrefixed;

void traceio::appendRegistryPayload(
    const trace::InstructionRegistry &Registry, std::vector<uint8_t> &Out) {
  encodeULEB128(Registry.numInstructions(), Out);
  for (size_t I = 0; I != Registry.numInstructions(); ++I) {
    const trace::InstrInfo &Info =
        Registry.instruction(static_cast<trace::InstrId>(I));
    appendLenPrefixed(Info.Name, Out);
    Out.push_back(static_cast<uint8_t>(Info.Kind));
  }
  encodeULEB128(Registry.numAllocSites(), Out);
  for (size_t I = 0; I != Registry.numAllocSites(); ++I) {
    const trace::AllocSiteInfo &Info =
        Registry.allocSite(static_cast<trace::AllocSiteId>(I));
    appendLenPrefixed(Info.Name, Out);
    appendLenPrefixed(Info.TypeName, Out);
  }
}

void traceio::appendRegistryPayload(
    const std::vector<trace::InstrInfo> &Instrs,
    const std::vector<trace::AllocSiteInfo> &Sites,
    std::vector<uint8_t> &Out) {
  encodeULEB128(Instrs.size(), Out);
  for (const trace::InstrInfo &Info : Instrs) {
    appendLenPrefixed(Info.Name, Out);
    Out.push_back(static_cast<uint8_t>(Info.Kind));
  }
  encodeULEB128(Sites.size(), Out);
  for (const trace::AllocSiteInfo &Info : Sites) {
    appendLenPrefixed(Info.Name, Out);
    appendLenPrefixed(Info.TypeName, Out);
  }
}

bool traceio::parseRegistryPayload(support::ByteCursor &C,
                                   std::vector<trace::InstrInfo> &Instrs,
                                   std::vector<trace::AllocSiteInfo> &Sites) {
  Instrs.clear();
  Sites.clear();
  uint64_t NumInstrs = 0;
  if (!C.readU("instruction count", NumInstrs))
    return false;
  for (uint64_t I = 0; I != NumInstrs; ++I) {
    trace::InstrInfo Instr;
    uint8_t Kind = 0;
    if (!C.readString("instruction name", Instr.Name) ||
        !C.readByte("instruction kind", Kind))
      return false;
    if (Kind > static_cast<uint8_t>(trace::AccessKind::Store))
      return C.fail("instruction kind",
                    "unknown access kind " + std::to_string(Kind));
    Instr.Kind = static_cast<trace::AccessKind>(Kind);
    Instrs.push_back(std::move(Instr));
  }
  uint64_t NumSites = 0;
  if (!C.readU("allocation-site count", NumSites))
    return false;
  for (uint64_t I = 0; I != NumSites; ++I) {
    trace::AllocSiteInfo Site;
    if (!C.readString("allocation-site name", Site.Name) ||
        !C.readString("allocation-site type", Site.TypeName))
      return false;
    Sites.push_back(std::move(Site));
  }
  return C.expectEnd();
}
