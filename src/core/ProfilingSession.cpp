//===- core/ProfilingSession.cpp - Framework wiring facade ---------------===//

#include "core/ProfilingSession.h"

using namespace orp;
using namespace orp::core;

ProfilingSession::ProfilingSession(memsim::AllocPolicy Policy, uint64_t Seed)
    : Translator(Omc), Memory(Policy, Seed) {
  Memory.attachSink(&Translator);
}
