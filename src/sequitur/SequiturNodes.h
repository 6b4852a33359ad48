//===- sequitur/SequiturNodes.h - Grammar node definitions -----*- C++ -*-===//
//
// Part of the ORP reproduction of "Exposing Memory Access Regularities
// Using Object-Relative Memory Profiling" (CGO 2004).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Definitions of SequiturGrammar's private node types. These live in
/// their own header (instead of Sequitur.cpp) so that the deep invariant
/// checker — check::GrammarValidator, a friend of SequiturGrammar — can
/// walk rule bodies, use lists and the arena free lists directly. Only
/// Sequitur.cpp and src/check/ may include this header; everything else
/// goes through the public SequiturGrammar interface.
///
//===----------------------------------------------------------------------===//

#ifndef ORP_SEQUITUR_SEQUITURNODES_H
#define ORP_SEQUITUR_SEQUITURNODES_H

#include "sequitur/Sequitur.h"

namespace orp {
namespace sequitur {

/// One symbol node. A symbol is exactly one of: a terminal, a use of a
/// rule (nonterminal), or the guard sentinel of a rule. Guards close each
/// rule body into a ring: Guard->Next is the first body symbol and
/// Guard->Prev the last. Nodes live in grammar-owned slabs; Live is the
/// intrusive liveness tag that replaced the LiveSymbols pointer set.
struct SequiturGrammar::Symbol {
  Symbol *Next = nullptr;
  Symbol *Prev = nullptr;
  /// The terminal, or RuleRef->Id for a nonterminal: digram keys and
  /// the serializer's rule numbering read it without loading the rule.
  uint64_t Value = 0;
  Rule *RuleRef = nullptr; ///< Non-null iff this is a nonterminal.
  Rule *GuardOf = nullptr; ///< Non-null iff this is a guard.
  Symbol *UseNext = nullptr; ///< Next use of RuleRef (intrusive list).
  Symbol *UsePrev = nullptr;
  bool Live = false;
};

/// One grammar rule. LivePrev/LiveNext thread the live-rule list while
/// the rule is live and the arena free list once it is released.
struct SequiturGrammar::Rule {
  uint64_t Id = 0;
  Symbol *Guard = nullptr;
  Symbol *UseHead = nullptr; ///< Intrusive list of nonterminal uses.
  size_t UseCount = 0;
  Rule *LivePrev = nullptr;
  Rule *LiveNext = nullptr;
  bool Live = false;
};

} // namespace sequitur
} // namespace orp

#endif // ORP_SEQUITUR_SEQUITURNODES_H
