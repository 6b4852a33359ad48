//===- check/GrammarValidator.cpp - Deep Sequitur validation -------------===//

#include "check/GrammarValidator.h"

#include "check/Check.h"
#include "sequitur/SequiturNodes.h"

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

using namespace orp;
using namespace orp::check;
using sequitur::SequiturGrammar;

namespace {

std::string ruleName(uint64_t Id) { return "R" + std::to_string(Id); }

} // namespace

CheckReport GrammarValidator::validate(const SequiturGrammar &G) {
  using Symbol = SequiturGrammar::Symbol;
  using Rule = SequiturGrammar::Rule;
  using DigramKey = SequiturGrammar::DigramKey;
  using DigramKeyHash = SequiturGrammar::DigramKeyHash;

  CheckReport Report;

  // Arena discipline: collect the reclaimed node sets first so the live
  // walks below can prove no live structure reaches into them. Free-list
  // nodes are poisoned under ASan, so each visit opens a scoped window.
  std::unordered_set<const Symbol *> DeadSymbols;
  std::unordered_set<const Rule *> DeadRules;
  for (const Symbol *S = G.SymbolFreeList; S;) {
    if (!DeadSymbols.insert(S).second) {
      Report.fail("arena: symbol free list contains a cycle");
      break;
    }
    ScopedUnpoison Window(S, sizeof(Symbol));
    Report.require(!S->Live, "arena: free-list symbol has Live tag set");
    S = S->Next;
  }
  for (const Symbol *S = G.SymbolPendingList; S;) {
    if (!DeadSymbols.insert(S).second) {
      Report.fail("arena: symbol pending list overlaps free list or "
                  "contains a cycle");
      break;
    }
    Report.require(!S->Live, "arena: pending-list symbol has Live tag set");
    S = S->Next;
  }
  for (const Rule *R = G.RuleFreeList; R;) {
    if (!DeadRules.insert(R).second) {
      Report.fail("arena: rule free list contains a cycle");
      break;
    }
    ScopedUnpoison Window(R, sizeof(Rule));
    Report.require(!R->Live, "arena: free-list rule has Live tag set");
    R = R->LiveNext;
  }
  for (const Rule *R = G.RulePendingList; R;) {
    if (!DeadRules.insert(R).second) {
      Report.fail("arena: rule pending list overlaps free list or "
                  "contains a cycle");
      break;
    }
    Report.require(!R->Live, "arena: pending-list rule has Live tag set");
    R = R->LiveNext;
  }

  // Live-rule list: well linked, tagged live, counted, disjoint from the
  // reclaimed sets, and anchored by the start rule.
  std::unordered_set<const Rule *> LiveListed;
  if (G.LiveRuleHead && G.LiveRuleHead->LivePrev)
    Report.fail("live-rule list: head has a LivePrev");
  for (const Rule *R = G.LiveRuleHead; R; R = R->LiveNext) {
    if (!LiveListed.insert(R).second) {
      Report.fail("live-rule list contains a cycle");
      break;
    }
    Report.require(R->Live, "live-rule list: " + ruleName(R->Id) +
                                " has a cleared Live tag");
    Report.require(!DeadRules.count(R), "live-rule list: " + ruleName(R->Id) +
                                            " is on an arena reclaim list");
    if (R->LiveNext && R->LiveNext->LivePrev != R)
      Report.fail("live-rule list: broken back-link after " +
                  ruleName(R->Id));
  }
  Report.require(LiveListed.size() == G.NumLiveRules,
                 "live-rule list length disagrees with NumLiveRules");
  Report.require(G.Start && LiveListed.count(G.Start),
                 "start rule is not on the live-rule list");

  // Rule bodies: guard rings intact, member symbols live and owned by
  // exactly one body, referenced rules live.
  std::unordered_map<const Symbol *, const Rule *> BodyOwner;
  bool ValuesOk = true;
  for (const Rule *R : LiveListed) {
    if (!Report.require(R->Guard != nullptr,
                        ruleName(R->Id) + ": missing guard"))
      continue;
    Report.require(R->Guard->GuardOf == R,
                   ruleName(R->Id) + ": guard does not point back");
    Report.require(R->Guard->Live,
                   ruleName(R->Id) + ": guard has a cleared Live tag");
    Report.require(!DeadSymbols.count(R->Guard),
                   ruleName(R->Id) + ": guard is on an arena reclaim list");
    size_t BodyLen = 0;
    bool RingOk = true;
    for (const Symbol *S = R->Guard->Next; S != R->Guard; S = S->Next) {
      if (!S || !BodyOwner.emplace(S, R).second) {
        Report.fail(ruleName(R->Id) +
                    ": body ring is broken or shares a symbol");
        RingOk = false;
        break;
      }
      Report.require(S->Live, ruleName(R->Id) +
                                  ": body symbol has a cleared Live tag");
      Report.require(!S->GuardOf,
                     ruleName(R->Id) + ": foreign guard inside the body");
      Report.require(!DeadSymbols.count(S),
                     ruleName(R->Id) +
                         ": body symbol is on an arena reclaim list");
      if (S->Next == nullptr || S->Next->Prev != S ||
          (S->Prev && S->Prev->Next != S))
        Report.fail(ruleName(R->Id) + ": body links are inconsistent");
      if (S->RuleRef) {
        Report.require(S->RuleRef->Live && LiveListed.count(S->RuleRef),
                       ruleName(R->Id) + ": body references dead rule " +
                           ruleName(S->RuleRef->Id));
        // The rule numbering indexes a per-id table by this value.
        ValuesOk &= Report.require(
            S->Value == S->RuleRef->Id && S->Value < G.NextRuleId,
            ruleName(R->Id) + ": use of " + ruleName(S->RuleRef->Id) +
                " carries value " + std::to_string(S->Value));
      }
      ++BodyLen;
    }
    if (RingOk && R != G.Start)
      Report.require(BodyLen >= 2, ruleName(R->Id) +
                                       ": non-start body shorter than 2");
  }

  // Use lists: counts agree, links are sane, every use is a live body
  // member of some rule, and every nonterminal body symbol is listed.
  std::unordered_set<const Symbol *> ListedUses;
  for (const Rule *R : LiveListed) {
    size_t Uses = 0;
    const Symbol *PrevUse = nullptr;
    for (const Symbol *U = R->UseHead; U; U = U->UseNext) {
      if (!ListedUses.insert(U).second) {
        Report.fail(ruleName(R->Id) + ": use list contains a cycle");
        break;
      }
      Report.require(U->RuleRef == R,
                     ruleName(R->Id) + ": use list entry references " +
                         (U->RuleRef ? ruleName(U->RuleRef->Id) : "nothing"));
      Report.require(U->UsePrev == PrevUse,
                     ruleName(R->Id) + ": use list back-link mismatch");
      Report.require(BodyOwner.count(U) != 0,
                     ruleName(R->Id) + ": use is not in any live body");
      PrevUse = U;
      ++Uses;
    }
    Report.require(Uses == R->UseCount,
                   ruleName(R->Id) + ": UseCount " +
                       std::to_string(R->UseCount) + " but use list holds " +
                       std::to_string(Uses));
    if (R != G.Start)
      Report.require(R->UseCount >= 2,
                     ruleName(R->Id) + ": rule utility below 2 (" +
                         std::to_string(R->UseCount) + " uses)");
  }
  for (const auto &[S, Owner] : BodyOwner)
    if (S->RuleRef)
      Report.require(ListedUses.count(S) != 0,
                     ruleName(Owner->Id) +
                         ": nonterminal body symbol missing from " +
                         ruleName(S->RuleRef->Id) + "'s use list");

  // Liveness tags must equal reachability from the start rule: a live
  // rule no walk can reach is leaked garbage. The walk numbers rules by
  // their uses' values, so it needs them intact.
  if (ValuesOk) {
    std::vector<const Rule *> Reach = G.reachableRules();
    std::unordered_set<const Rule *> ReachSet(Reach.begin(), Reach.end());
    for (const Rule *R : LiveListed)
      Report.require(ReachSet.count(R) != 0,
                     ruleName(R->Id) +
                         ": live rule unreachable from the start rule");
    for (const Rule *R : ReachSet)
      Report.require(LiveListed.count(R) != 0,
                     ruleName(R->Id) +
                         ": reachable rule missing from the live-rule list");
  }

  // Digram uniqueness plus index coherence. Occurrences of one key may
  // only coexist when they overlap (the "aaa" run case); the index must
  // contain exactly the occurring keys (completeness) and each entry
  // must point at a live occurrence of its key (soundness).
  std::unordered_map<DigramKey, std::vector<const Symbol *>, DigramKeyHash>
      Occurrences;
  // Only walk the rings again if the structural pass found them intact;
  // a broken ring has no safe termination condition.
  const bool StructureOk = Report.ok();
  if (StructureOk)
    for (const Rule *R : LiveListed)
      for (const Symbol *S = R->Guard->Next; S != R->Guard; S = S->Next)
        if (!S->Next->GuardOf)
          Occurrences[G.keyOf(S)].push_back(S);
  for (const auto &[Key, Positions] : Occurrences) {
    for (size_t I = 0; I != Positions.size(); ++I)
      for (size_t J = I + 1; J != Positions.size(); ++J) {
        const Symbol *A = Positions[I];
        const Symbol *B = Positions[J];
        if (A->Next != B && B->Next != A)
          Report.fail("digram uniqueness violated: key (" +
                      std::to_string(Key.V1) + "," + std::to_string(Key.V2) +
                      ",tags=" + std::to_string(Key.Tags) +
                      ") occurs at two non-overlapping positions");
      }
    size_t Slot = G.Index.findSlot(Key.V1, Key.V2, Key.Tags);
    if (Slot == sequitur::DigramTable<Symbol *>::Npos) {
      Report.fail("digram index desync: key (" + std::to_string(Key.V1) +
                  "," + std::to_string(Key.V2) +
                  ",tags=" + std::to_string(Key.Tags) +
                  ") occurs in the grammar but is not indexed");
      continue;
    }
    const Symbol *Canon = G.Index.valueAt(Slot);
    bool IsOccurrence = false;
    for (const Symbol *P : Positions)
      IsOccurrence |= (P == Canon);
    Report.require(IsOccurrence,
                   "digram index desync: indexed occurrence of key (" +
                       std::to_string(Key.V1) + "," + std::to_string(Key.V2) +
                       ",tags=" + std::to_string(Key.Tags) +
                       ") is not where the key occurs");
  }
  if (StructureOk) {
    G.Index.forEach([&](uint64_t V1, uint64_t V2, uint8_t Tags, Symbol *S) {
      std::string KeyStr = "(" + std::to_string(V1) + "," +
                           std::to_string(V2) +
                           ",tags=" + std::to_string(Tags) + ")";
      if (!Report.require(S && S->Live && !S->GuardOf && S->Next &&
                              !S->Next->GuardOf && BodyOwner.count(S) != 0,
                          "digram index desync: entry " + KeyStr +
                              " points outside the live grammar"))
        return;
      DigramKey K = G.keyOf(S);
      Report.require(K.V1 == V1 && K.V2 == V2 && K.Tags == Tags,
                     "digram index desync: entry " + KeyStr +
                         " points at a different digram");
    });
    Report.require(G.Index.size() == Occurrences.size(),
                   "digram index holds " + std::to_string(G.Index.size()) +
                       " entries but the grammar has " +
                       std::to_string(Occurrences.size()) +
                       " distinct digrams");
  }

  // Expansion length over the rule DAG (memoized, so O(grammar) rather
  // than O(input)) must equal the number of appended terminals.
  std::unordered_map<const Rule *, uint64_t> Lengths;
  std::unordered_set<const Rule *> Visiting;
  bool Cyclic = false;
  auto LengthOf = [&](auto &&Self, const Rule *R) -> uint64_t {
    auto It = Lengths.find(R);
    if (It != Lengths.end())
      return It->second;
    if (!Visiting.insert(R).second || !R->Guard) {
      Cyclic = true;
      return 0;
    }
    uint64_t Len = 0;
    for (const Symbol *S = R->Guard->Next; S != R->Guard; S = S->Next) {
      if (BodyOwner.find(S) == BodyOwner.end())
        break; // Broken ring, already reported.
      Len += S->RuleRef ? Self(Self, S->RuleRef) : 1;
    }
    Visiting.erase(R);
    Lengths.emplace(R, Len);
    return Len;
  };
  if (StructureOk) {
    uint64_t Expanded = LengthOf(LengthOf, G.Start);
    Report.require(!Cyclic, "rule DAG contains a reference cycle");
    Report.require(Expanded == G.InputLen,
                   "start rule expands to " + std::to_string(Expanded) +
                       " terminals but InputLen is " +
                       std::to_string(G.InputLen));
  }

  return Report;
}

GrammarValidator::ArenaAudit
GrammarValidator::auditArenaPoisoning(const SequiturGrammar &G) {
  using Symbol = SequiturGrammar::Symbol;
  using Rule = SequiturGrammar::Rule;

  ArenaAudit Audit;
  Audit.AsanActive = asanActive();
  for (const Symbol *S = G.SymbolFreeList; S;) {
    ++Audit.FreeSymbols;
    if (isPoisoned(S))
      ++Audit.PoisonedFreeSymbols;
    ScopedUnpoison Window(S, sizeof(Symbol));
    S = S->Next;
  }
  for (const Symbol *S = G.SymbolPendingList; S; S = S->Next) {
    ++Audit.PendingSymbols;
    if (isPoisoned(S))
      ++Audit.PoisonedPendingSymbols;
  }
  for (const Rule *R = G.RuleFreeList; R;) {
    ++Audit.FreeRules;
    if (isPoisoned(R))
      ++Audit.PoisonedFreeRules;
    ScopedUnpoison Window(R, sizeof(Rule));
    R = R->LiveNext;
  }
  for (const Rule *R = G.RulePendingList; R; R = R->LiveNext) {
    ++Audit.PendingRules;
    if (isPoisoned(R))
      ++Audit.PoisonedPendingRules;
  }
  return Audit;
}

bool GrammarValidator::injectForTest(SequiturGrammar &G, Corruption K) {
  using Symbol = SequiturGrammar::Symbol;
  using Rule = SequiturGrammar::Rule;
  using Table = sequitur::DigramTable<Symbol *>;

  switch (K) {
  case Corruption::DigramIndexDrop: {
    bool Dropped = false;
    G.Index.forEach([&](uint64_t V1, uint64_t V2, uint8_t Tags, Symbol *) {
      if (Dropped)
        return;
      size_t Slot = G.Index.findSlot(V1, V2, Tags);
      if (Slot != Table::Npos) {
        G.Index.eraseSlot(Slot);
        Dropped = true;
      }
    });
    return Dropped;
  }
  case Corruption::DigramIndexRetarget: {
    // Repoint the first entry at the occurrence of a *different* key, so
    // the entry's key no longer matches what it points at.
    struct Grab {
      uint64_t V1, V2;
      uint8_t Tags;
      Symbol *S;
    };
    std::vector<Grab> Entries;
    G.Index.forEach([&](uint64_t V1, uint64_t V2, uint8_t Tags, Symbol *S) {
      if (Entries.size() < 2)
        Entries.push_back(Grab{V1, V2, Tags, S});
    });
    if (Entries.size() < 2)
      return false;
    size_t Slot =
        G.Index.findSlot(Entries[0].V1, Entries[0].V2, Entries[0].Tags);
    if (Slot == Table::Npos)
      return false;
    G.Index.eraseSlot(Slot);
    G.Index.insert(Entries[0].V1, Entries[0].V2, Entries[0].Tags,
                   Entries[1].S);
    return true;
  }
  case Corruption::UseCountSkew: {
    for (Rule *R = G.LiveRuleHead; R; R = R->LiveNext)
      if (R != G.Start) {
        ++R->UseCount;
        return true;
      }
    return false;
  }
  case Corruption::LivenessTagClear: {
    Symbol *S = G.Start->Guard->Next;
    if (S->GuardOf)
      return false;
    S->Live = false;
    return true;
  }
  case Corruption::NonterminalValueSkew: {
    for (Symbol *S = G.Start->Guard->Next; S != G.Start->Guard; S = S->Next)
      if (S->RuleRef) {
        S->Value = G.NextRuleId;
        return true;
      }
    return false;
  }
  }
  return false;
}
