//===- sequitur/Sequitur.cpp - Linear-time Sequitur compression ----------===//

#include "sequitur/Sequitur.h"

#include "check/Check.h"
#include "sequitur/SequiturNodes.h"
#include "support/Error.h"
#include "support/VarInt.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <string>

using namespace orp;
using namespace orp::sequitur;

bool SequiturGrammar::isLive(const Symbol *S) const { return S->Live; }
bool SequiturGrammar::isLiveRule(const Rule *R) const { return R->Live; }

//===----------------------------------------------------------------------===//
// Slab arena
//===----------------------------------------------------------------------===//

SequiturGrammar::Symbol *SequiturGrammar::allocSymbol() {
  Symbol *S;
  if (SymbolFreeList) {
    // Free-list nodes are ASan-poisoned; reopen this one before touching
    // its chain pointer.
    check::unpoisonRegion(SymbolFreeList, sizeof(Symbol));
    S = SymbolFreeList;
    SymbolFreeList = S->Next;
  } else {
    if (SymbolSlabUsed == SymbolsPerSlab) {
      // NOLINTNEXTLINE(cppcoreguidelines-owning-memory): slab arena owner.
      Symbol *Slab = new Symbol[SymbolsPerSlab];
      // A fresh slab is born poisoned past the bump cursor: reads ahead
      // of allocation are as illegal as reads after reclamation.
      check::poisonRegion(Slab, sizeof(Symbol) * SymbolsPerSlab);
      SymbolSlabs.push_back(Slab);
      SymbolSlabUsed = 0;
    }
    S = &SymbolSlabs.back()[SymbolSlabUsed++];
    check::unpoisonRegion(S, sizeof(Symbol));
  }
  *S = Symbol{};
  S->Live = true;
  return S;
}

void SequiturGrammar::releaseSymbol(Symbol *S) {
  ORP_CHECK1(S->Live, "sequitur arena: symbol double release");
  S->Live = false;
  S->Next = SymbolPendingList;
  SymbolPendingList = S;
}

SequiturGrammar::Rule *SequiturGrammar::allocRule() {
  Rule *R;
  if (RuleFreeList) {
    check::unpoisonRegion(RuleFreeList, sizeof(Rule));
    R = RuleFreeList;
    RuleFreeList = R->LiveNext;
  } else {
    if (RuleSlabUsed == RulesPerSlab) {
      // NOLINTNEXTLINE(cppcoreguidelines-owning-memory): slab arena owner.
      Rule *Slab = new Rule[RulesPerSlab];
      check::poisonRegion(Slab, sizeof(Rule) * RulesPerSlab);
      RuleSlabs.push_back(Slab);
      RuleSlabUsed = 0;
    }
    R = &RuleSlabs.back()[RuleSlabUsed++];
    check::unpoisonRegion(R, sizeof(Rule));
  }
  *R = Rule{};
  R->Live = true;
  return R;
}

void SequiturGrammar::releaseRule(Rule *R) {
  ORP_CHECK1(R->Live, "sequitur arena: rule double release");
  R->Live = false;
  R->LiveNext = RulePendingList;
  RulePendingList = R;
}

void SequiturGrammar::reclaimPending() {
  // Pending nodes were readable for the duration of the last append
  // cascade (the sanctioned stale-pointer dead-check window). Moving to
  // the free list ends that window, so poison them now.
  while (SymbolPendingList) {
    Symbol *S = SymbolPendingList;
    SymbolPendingList = S->Next;
    S->Next = SymbolFreeList;
    SymbolFreeList = S;
    check::poisonRegion(S, sizeof(Symbol));
  }
  while (RulePendingList) {
    Rule *R = RulePendingList;
    RulePendingList = R->LiveNext;
    R->LiveNext = RuleFreeList;
    RuleFreeList = R;
    check::poisonRegion(R, sizeof(Rule));
  }
}

//===----------------------------------------------------------------------===//
// Node lifecycle
//===----------------------------------------------------------------------===//

SequiturGrammar::SequiturGrammar() { Start = newRule(); }

SequiturGrammar::~SequiturGrammar() {
  // Nodes are trivially destructible; dropping the slabs releases
  // everything (live, pending and free alike). Unpoison each slab first
  // so the allocator may touch the memory while recycling it.
  for (Symbol *Slab : SymbolSlabs) {
    check::unpoisonRegion(Slab, sizeof(Symbol) * SymbolsPerSlab);
    delete[] Slab; // NOLINT(cppcoreguidelines-owning-memory)
  }
  for (Rule *Slab : RuleSlabs) {
    check::unpoisonRegion(Slab, sizeof(Rule) * RulesPerSlab);
    delete[] Slab; // NOLINT(cppcoreguidelines-owning-memory)
  }
}

SequiturGrammar::Symbol *SequiturGrammar::newTerminal(uint64_t Value) {
  Symbol *S = allocSymbol();
  S->Value = Value;
  return S;
}

SequiturGrammar::Symbol *SequiturGrammar::newNonTerminal(Rule *R) {
  Symbol *S = allocSymbol();
  S->Value = R->Id;
  S->RuleRef = R;
  S->UseNext = R->UseHead;
  if (R->UseHead)
    R->UseHead->UsePrev = S;
  R->UseHead = S;
  ++R->UseCount;
  return S;
}

void SequiturGrammar::destroySymbol(Symbol *S) {
  ORP_CHECK1(!S->GuardOf, "guards are destroyed with their rule");
  if (Rule *R = S->RuleRef) {
    if (S->UsePrev)
      S->UsePrev->UseNext = S->UseNext;
    else
      R->UseHead = S->UseNext;
    if (S->UseNext)
      S->UseNext->UsePrev = S->UsePrev;
    --R->UseCount;
    if (R->UseCount <= 1 && R != Start)
      MaybeUnderused.push_back(R);
  }
  releaseSymbol(S);
}

SequiturGrammar::Rule *SequiturGrammar::newRule() {
  Rule *R = allocRule();
  R->Id = NextRuleId++;
  R->Guard = allocSymbol();
  R->Guard->GuardOf = R;
  R->Guard->Next = R->Guard;
  R->Guard->Prev = R->Guard;
  R->LiveNext = LiveRuleHead;
  if (LiveRuleHead)
    LiveRuleHead->LivePrev = R;
  LiveRuleHead = R;
  ++NumLiveRules;
  return R;
}

void SequiturGrammar::destroyRule(Rule *R) {
  ORP_CHECK1(R != Start, "cannot destroy the start rule");
  ORP_CHECK1(R->UseCount == 0 && !R->UseHead, "destroying a rule in use");
  if (R->LivePrev)
    R->LivePrev->LiveNext = R->LiveNext;
  else
    LiveRuleHead = R->LiveNext;
  if (R->LiveNext)
    R->LiveNext->LivePrev = R->LivePrev;
  --NumLiveRules;
  releaseSymbol(R->Guard);
  releaseRule(R);
}

//===----------------------------------------------------------------------===//
// Digram index maintenance
//===----------------------------------------------------------------------===//

void SequiturGrammar::link(Symbol *A, Symbol *B) {
  A->Next = B;
  B->Prev = A;
}

SequiturGrammar::DigramKey SequiturGrammar::keyOf(const Symbol *A) const {
  const Symbol *B = A->Next;
  assert(!A->GuardOf && !B->GuardOf && "digram key of a guard");
  DigramKey K;
  K.V1 = A->Value;
  K.V2 = B->Value;
  K.Tags = static_cast<uint8_t>((A->RuleRef ? 1 : 0) | (B->RuleRef ? 2 : 0));
  return K;
}

void SequiturGrammar::removeDigramAt(Symbol *A) {
  if (!A || A->GuardOf || !A->Next || A->Next->GuardOf)
    return;
  DigramKey K = keyOf(A);
  size_t Slot = Index.findSlot(K.V1, K.V2, K.Tags);
  if (Slot != DigramTable<Symbol *>::Npos && Index.valueAt(Slot) == A)
    Index.eraseSlot(Slot);
}

//===----------------------------------------------------------------------===//
// Core algorithm
//===----------------------------------------------------------------------===//

void SequiturGrammar::append(uint64_t Value) {
  // No references into the grammar are held across appends, so nodes
  // freed during the previous append are now safe to recycle.
  reclaimPending();
  TerminalBits |= Value;
  Symbol *S = newTerminal(Value);
  Symbol *Tail = Start->Guard->Prev;
  link(Tail, S);
  link(S, Start->Guard);
  if (!Tail->GuardOf)
    checkDigram(Tail);
  ++InputLen;
  repairUtility();
}

void SequiturGrammar::appendAll(const std::vector<uint64_t> &Values) {
  for (uint64_t V : Values)
    append(V);
}

bool SequiturGrammar::checkDigram(Symbol *A) {
  Symbol *B = A->Next;
  if (A->GuardOf || B->GuardOf)
    return false;
  DigramKey K = keyOf(A);
  size_t Slot = Index.findSlot(K.V1, K.V2, K.Tags);
  if (Slot == DigramTable<Symbol *>::Npos) {
    Index.insert(K.V1, K.V2, K.Tags, A);
    return false;
  }
  Symbol *M = Index.valueAt(Slot);
  if (M == A)
    return false;
  // Overlapping occurrences (e.g. the middle of "aaa") never substitute.
  if (M->Next == A || A->Next == M)
    return false;
  processMatch(A, M);
  return true;
}

void SequiturGrammar::processMatch(Symbol *A, Symbol *M) {
  Rule *R;
  if (M->Prev->GuardOf && M->Next->Next->GuardOf) {
    // The indexed occurrence is a complete rule body: reuse that rule.
    R = M->Prev->GuardOf;
    substituteDigram(A, R);
    return;
  }

  // Otherwise create a new rule from copies of the digram. The copies
  // are taken from A before any substitution can destroy it.
  R = newRule();
  Symbol *C1 = A->RuleRef ? newNonTerminal(A->RuleRef)
                          : newTerminal(A->Value);
  Symbol *C2 = A->Next->RuleRef ? newNonTerminal(A->Next->RuleRef)
                                : newTerminal(A->Next->Value);
  link(R->Guard, C1);
  link(C1, C2);
  link(C2, R->Guard);

  substituteDigram(M, R);
  // Substituting at M can cascade through the grammar; only substitute
  // the second occurrence if it survived with its digram intact. (When it
  // did not, R may be left under-used, which repairUtility() then fixes.)
  if (isLive(A) && !A->Next->GuardOf &&
      keyOf(A) == keyOf(R->Guard->Next))
    substituteDigram(A, R);
  // Index the rule body as the canonical occurrence of its digram. The
  // substitution cascades above may have created (and indexed) fresh
  // occurrences of the same digram elsewhere; fold every such occurrence
  // into R first, or digram uniqueness would be silently violated.
  while (isLiveRule(R) && !R->Guard->Next->GuardOf &&
         !R->Guard->Next->Next->GuardOf) {
    DigramKey BodyKey = keyOf(R->Guard->Next);
    size_t Slot = Index.findSlot(BodyKey.V1, BodyKey.V2, BodyKey.Tags);
    if (Slot == DigramTable<Symbol *>::Npos) {
      Index.insert(BodyKey.V1, BodyKey.V2, BodyKey.Tags, R->Guard->Next);
      break;
    }
    if (Index.valueAt(Slot) == R->Guard->Next)
      break;
    Symbol *Other = Index.valueAt(Slot);
    substituteDigram(Other, R);
  }
  // A freshly created rule that gained only one use (second substitution
  // skipped) must be queued for utility repair: it was never decremented,
  // so destroySymbol() has not queued it.
  if (isLiveRule(R) && R->UseCount <= 1)
    MaybeUnderused.push_back(R);
}

void SequiturGrammar::substituteDigram(Symbol *First, Rule *R) {
  Symbol *Second = First->Next;
  ORP_CHECK1(!First->GuardOf && !Second->GuardOf, "substituting a guard");
  Symbol *Prev = First->Prev;
  Symbol *Next = Second->Next;
  Symbol *PrevPrev = Prev->GuardOf ? nullptr : Prev->Prev;

  if (!Prev->GuardOf)
    removeDigramAt(Prev);
  removeDigramAt(First);
  if (!Second->GuardOf)
    removeDigramAt(Second);

  destroySymbol(First);
  destroySymbol(Second);

  Symbol *Use = newNonTerminal(R);
  link(Prev, Use);
  link(Use, Next);

  // Re-establish digram uniqueness on both new junctions. If the left
  // junction substituted, Use is gone and the cascade already covered
  // the neighborhood.
  if (!checkDigram(Prev) && isLive(Use))
    checkDigram(Use);

  // Twin repair. In a run of one repeated symbol ("aaa"-style) only one
  // of the overlapping digram occurrences is indexed; the removals above
  // may have dropped exactly that canonical occurrence while an
  // overlapping twin just outside the replaced region survived. Re-check
  // the surviving neighbors so the twin is re-indexed (or folded into an
  // existing rule).
  if (Next && isLive(Next))
    checkDigram(Next);
  if (PrevPrev && isLive(PrevPrev))
    checkDigram(PrevPrev);
}

void SequiturGrammar::expandSingleUse(Rule *R) {
  ORP_CHECK1(R->UseCount == 1 && R->UseHead, "not a single-use rule");
  Symbol *Use = R->UseHead;
  Symbol *Prev = Use->Prev;
  Symbol *Next = Use->Next;
  Symbol *First = R->Guard->Next;
  Symbol *Last = R->Guard->Prev;
  assert(First != R->Guard && "expanding an empty rule");

  removeDigramAt(Prev);
  removeDigramAt(Use);

  // Splice the body in place of the use.
  link(Prev, First);
  link(Last, Next);
  destroySymbol(Use); // Drops UseCount to 0.
  destroyRule(R);

  // Check the two junction digrams; the body's interior digrams keep
  // their existing index entries (the symbols were moved, not copied).
  checkDigram(Prev);
  if (isLive(Last))
    checkDigram(Last);
}

void SequiturGrammar::repairUtility() {
  while (!MaybeUnderused.empty()) {
    Rule *R = MaybeUnderused.back();
    MaybeUnderused.pop_back();
    if (!isLiveRule(R))
      continue;
    if (R->UseCount == 1) {
      expandSingleUse(R);
    } else if (R->UseCount == 0) {
      // Defensive: an unreferenced rule's body is garbage; drop it.
      Symbol *S = R->Guard->Next;
      while (S != R->Guard) {
        Symbol *Next = S->Next;
        removeDigramAt(S);
        destroySymbol(S);
        S = Next;
      }
      destroyRule(R);
    }
  }
}

//===----------------------------------------------------------------------===//
// Inspection, expansion, serialization
//===----------------------------------------------------------------------===//

size_t SequiturGrammar::totalBodySymbols() const {
  size_t Total = 0;
  for (const Rule *R = LiveRuleHead; R; R = R->LiveNext)
    for (const Symbol *S = R->Guard->Next; S != R->Guard; S = S->Next)
      ++Total;
  return Total;
}

/// Numbers the rules reachable from the start rule densely, in
/// first-visit order: the start rule is 0 and the rules are walked
/// breadth first, each body read in order. Rule ids come from
/// NextRuleId++, so the numbers live in a vector indexed by id, and a
/// nonterminal's Value (its rule id) finds its number without loading
/// the rule.
class SequiturGrammar::RuleNumbering {
public:
  explicit RuleNumbering(const SequiturGrammar &G)
      : Num(static_cast<size_t>(G.NextRuleId), kUnnumbered) {
    Num[static_cast<size_t>(G.Start->Id)] = 0;
    Order.push_back(G.Start);
  }

  /// Returns the number of the rule \p Use references, numbering the
  /// rule and queueing it for the walk on its first visit.
  uint32_t numberOf(const Symbol *Use) {
    uint32_t &N = Num[static_cast<size_t>(Use->Value)];
    if (N == kUnnumbered) {
      N = static_cast<uint32_t>(Order.size());
      Order.push_back(Use->RuleRef);
    }
    return N;
  }

  /// Numbers every reachable rule without producing output.
  void numberAll() {
    for (size_t I = 0; I != Order.size(); ++I)
      for (const Symbol *S = Order[I]->Guard->Next; S != Order[I]->Guard;
           S = S->Next)
        if (S->RuleRef)
          numberOf(S);
  }

  /// Rules in number order; grows while a walk visits new rules.
  std::vector<const Rule *> Order;

private:
  static constexpr uint32_t kUnnumbered = ~static_cast<uint32_t>(0);
  std::vector<uint32_t> Num;
};

std::vector<const SequiturGrammar::Rule *>
SequiturGrammar::reachableRules() const {
  RuleNumbering Numbers(*this);
  Numbers.numberAll();
  return std::move(Numbers.Order);
}

std::vector<uint64_t> SequiturGrammar::expandAll() const {
  std::vector<uint64_t> Out;
  Out.reserve(InputLen);
  // Iterative expansion: the stack holds the next symbol to visit per
  // nesting level.
  std::vector<const Symbol *> Stack;
  Stack.push_back(Start->Guard->Next);
  while (!Stack.empty()) {
    const Symbol *S = Stack.back();
    if (S->GuardOf) {
      Stack.pop_back();
      continue;
    }
    Stack.back() = S->Next;
    if (S->RuleRef)
      Stack.push_back(S->RuleRef->Guard->Next);
    else
      Out.push_back(S->Value);
  }
  return Out;
}

std::vector<uint8_t> SequiturGrammar::serialize() const {
  // One pass: each reachable body is read once, numbering the rules it
  // references on first visit. A body's codes are buffered so its length
  // prefix goes first; the rule count is known only once the walk ends,
  // so the two-field header is prepended last.
  RuleNumbering Numbers(*this);
  std::vector<uint8_t> Out;
  std::vector<uint8_t> Codes;
  for (size_t I = 0; I != Numbers.Order.size(); ++I) {
    const Rule *R = Numbers.Order[I];
    size_t BodyLen = 0;
    Codes.clear();
    for (const Symbol *S = R->Guard->Next; S != R->Guard; S = S->Next) {
      ++BodyLen;
      if (S->RuleRef) {
        encodeULEB128((uint64_t{Numbers.numberOf(S)} << 1) | 1, Codes);
      } else {
        if (S->Value >> 63)
          ORP_FATAL_ERROR("sequitur: terminal of 2^63 or more does not fit "
                          "the grammar image");
        encodeULEB128(S->Value << 1, Codes);
      }
    }
    encodeULEB128(BodyLen, Out);
    Out.insert(Out.end(), Codes.begin(), Codes.end());
  }
  std::vector<uint8_t> Header;
  encodeULEB128(Numbers.Order.size(), Header);
  encodeULEB128(InputLen, Header);
  Out.insert(Out.begin(), Header.begin(), Header.end());
  return Out;
}

size_t SequiturGrammar::serializedSizeBytes() const {
  return serialize().size();
}

std::string SequiturGrammar::dump() const {
  RuleNumbering Numbers(*this);
  std::string Out;
  char Buf[64];
  for (size_t I = 0; I != Numbers.Order.size(); ++I) {
    const Rule *R = Numbers.Order[I];
    std::snprintf(Buf, sizeof(Buf), "R%zu ->", I);
    Out += Buf;
    for (const Symbol *S = R->Guard->Next; S != R->Guard; S = S->Next) {
      if (S->RuleRef)
        std::snprintf(Buf, sizeof(Buf), " R%u", Numbers.numberOf(S));
      else
        std::snprintf(Buf, sizeof(Buf), " %llu",
                      static_cast<unsigned long long>(S->Value));
      Out += Buf;
    }
    Out += '\n';
  }
  return Out;
}

std::vector<RuleStats> SequiturGrammar::ruleStats(size_t PrefixCap) const {
  // The view of serialize()'s rules, numbered alike, filled from the
  // bodies so that terminals keep all 64 bits.
  RuleNumbering Numbers(*this);
  GrammarImage View;
  for (size_t I = 0; I != Numbers.Order.size(); ++I) {
    const Rule *R = Numbers.Order[I];
    View.BodyBegin.push_back(View.Symbols.size());
    for (const Symbol *S = R->Guard->Next; S != R->Guard; S = S->Next) {
      View.IsRule.push_back(S->RuleRef != nullptr);
      View.Symbols.push_back(S->RuleRef ? Numbers.numberOf(S) : S->Value);
    }
  }
  View.BodyBegin.push_back(View.Symbols.size());
  if (std::string Why = View.index(InputLen); !Why.empty())
    ORP_FATAL_ERROR(Why.c_str());
  return View.ruleStats(PrefixCap);
}
