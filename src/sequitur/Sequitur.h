//===- sequitur/Sequitur.h - Linear-time Sequitur compression --*- C++ -*-===//
//
// Part of the ORP reproduction of "Exposing Memory Access Regularities
// Using Object-Relative Memory Profiling" (CGO 2004).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Sequitur hierarchical grammar compressor of Nevill-Manning &
/// Witten ("Identifying hierarchical structure in sequences: a
/// linear-time algorithm", JAIR 1997), which WHOMP uses to compress each
/// decomposed dimension stream (the paper's Section 3). The algorithm
/// maintains two invariants while consuming the input one symbol at a
/// time:
///
///   * digram uniqueness — no pair of adjacent symbols occurs more than
///     once in the grammar; a repeated digram becomes (or reuses) a rule;
///   * rule utility — every rule is referenced more than once; a rule
///     that drops to a single use is inlined and deleted.
///
/// Example from the paper: "abcbcabcbc" compresses to
///   S -> A A ;  A -> a B B ;  B -> b c
///
/// This implementation differs from the reference code in one
/// robustness-motivated way: each rule keeps an intrusive list of its
/// uses, and utility repair is driven from a worklist drained after each
/// append, instead of the reference implementation's single
/// first-body-symbol check. The produced grammars satisfy both
/// invariants (check::GrammarValidator verifies them directly).
///
//===----------------------------------------------------------------------===//

#ifndef ORP_SEQUITUR_SEQUITUR_H
#define ORP_SEQUITUR_SEQUITUR_H

#include "sequitur/DigramTable.h"
#include "sequitur/GrammarImage.h"

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace orp {

namespace check {
class GrammarValidator;
} // namespace check

namespace sequitur {

/// Incremental Sequitur grammar over uint64 terminal symbols.
class SequiturGrammar {
public:
  SequiturGrammar();
  ~SequiturGrammar();

  SequiturGrammar(const SequiturGrammar &) = delete;
  SequiturGrammar &operator=(const SequiturGrammar &) = delete;

  /// Appends one terminal to the input sequence.
  void append(uint64_t Value);

  /// Appends every element of \p Values in order.
  void appendAll(const std::vector<uint64_t> &Values);

  /// Returns the number of terminals appended so far.
  uint64_t inputLength() const { return InputLen; }

  /// Returns the number of live rules, including the start rule.
  size_t numRules() const { return NumLiveRules; }

  /// Returns the total number of symbols across all rule bodies — the
  /// standard abstract "grammar size" measure.
  size_t totalBodySymbols() const;

  /// Reconstructs the original input by expanding the start rule; the
  /// grammar is lossless, so this equals the appended sequence.
  std::vector<uint64_t> expandAll() const;

  /// Serializes the grammar (ULEB128-based); byte counts of this
  /// serialization are the profile sizes compared in Figure 5. A
  /// terminal's code is its value << 1, so every terminal must be below
  /// 2^63; a larger one is a fatal error in every build. Check
  /// fitsImage() first when the terminals come from untrusted input.
  std::vector<uint8_t> serialize() const;

  /// True when every terminal appended so far is below 2^63, so that
  /// serialize() can write the grammar image.
  bool fitsImage() const { return (TerminalBits >> 63) == 0; }

  /// Returns serialize().size() without retaining the buffer.
  size_t serializedSizeBytes() const;

  /// Renders the grammar as text ("R0 -> R1 R1", "R1 -> a R2 R2", ...).
  std::string dump() const;

  /// Returns statistics for every reachable rule, start rule first and
  /// numbered as serialize() numbers them: GrammarImage::ruleStats() of
  /// the live rule bodies, exact for every uint64 terminal. Occurrences
  /// counts how many times the rule's expansion appears in the input via
  /// the grammar structure (the start rule occurs once).
  std::vector<RuleStats> ruleStats(size_t PrefixCap = 16) const;

  /// \name Introspection for the telemetry layer
  /// Arena and index occupancy, read from the owning thread (or after
  /// the owning worker finished).
  /// @{
  size_t numSymbolSlabs() const { return SymbolSlabs.size(); }
  size_t numRuleSlabs() const { return RuleSlabs.size(); }
  size_t numDigrams() const { return Index.size(); }
  /// Rule ids issued so far, inlined and deleted rules included; never
  /// below numRules().
  uint64_t rulesCreated() const { return NextRuleId; }
  /// @}

private:
  /// The deep invariant checker (src/check/GrammarValidator.h) walks
  /// rule bodies, use lists and the arena free lists directly, and
  /// injects corruptions for its own negative tests.
  friend class ::orp::check::GrammarValidator;

  struct Rule;
  struct Symbol;

  /// Hashable identity of a digram (two adjacent symbols).
  struct DigramKey {
    uint64_t V1;
    uint64_t V2;
    uint8_t Tags; ///< Bit 0: V1 is a rule id; bit 1: V2 is a rule id.
    bool operator==(const DigramKey &O) const {
      return V1 == O.V1 && V2 == O.V2 && Tags == O.Tags;
    }
  };
  struct DigramKeyHash {
    size_t operator()(const DigramKey &K) const {
      return static_cast<size_t>(hashDigram(K.V1, K.V2, K.Tags));
    }
  };

  /// \name Slab arena
  /// Symbols and rules come from grammar-owned slabs instead of the
  /// global heap: appending is the profiling hot path and pays for every
  /// malloc/free twice (allocation plus the liveness bookkeeping the old
  /// unordered_sets did per node). Freed nodes go onto a *pending* list
  /// first and only become reusable at the next top-level append() —
  /// within one append cascade a stale pointer therefore still reads as
  /// dead, exactly matching the pointer-set semantics this replaced.
  ///
  /// Under AddressSanitizer this contract is enforced, not just relied
  /// on: reclaimPending() poisons nodes as they move to the free lists
  /// (and fresh slabs are born poisoned past the bump cursor), so any
  /// read outside the sanctioned pending-list window is an immediate
  /// use-after-poison report. alloc* unpoison a node before reuse. See
  /// check/Check.h.
  /// @{
  Symbol *allocSymbol();
  void releaseSymbol(Symbol *S);
  Rule *allocRule();
  void releaseRule(Rule *R);
  void reclaimPending();
  /// @}

  Symbol *newTerminal(uint64_t Value);
  Symbol *newNonTerminal(Rule *R);
  void destroySymbol(Symbol *S);
  Rule *newRule();
  void destroyRule(Rule *R);

  static void link(Symbol *A, Symbol *B);
  DigramKey keyOf(const Symbol *A) const;
  void removeDigramAt(Symbol *A);

  /// Enforces digram uniqueness for the digram starting at \p A.
  /// Returns true if a substitution consumed the digram.
  bool checkDigram(Symbol *A);

  /// Handles a repeated digram: \p A is the new occurrence, \p M the
  /// indexed one.
  void processMatch(Symbol *A, Symbol *M);

  /// Replaces the digram starting at \p First with a use of \p R.
  void substituteDigram(Symbol *First, Rule *R);

  /// Inlines the single remaining use of \p R and deletes the rule.
  void expandSingleUse(Rule *R);

  /// Drains MaybeUnderused until the utility invariant holds.
  void repairUtility();

  /// Liveness is an intrusive tag on the node (set by alloc*, cleared by
  /// release*), so these are plain field reads instead of hash probes.
  bool isLive(const Symbol *S) const;
  bool isLiveRule(const Rule *R) const;

  /// Dense rule numbers for serialize() and dump().
  class RuleNumbering;

  /// Returns the rules reachable from the start rule, start first, in
  /// the first-visit order that gives them their dense numbers.
  std::vector<const Rule *> reachableRules() const;

  Rule *Start;
  uint64_t InputLen = 0;
  /// OR of every appended terminal: one instruction per append buys
  /// fitsImage() without a scan.
  uint64_t TerminalBits = 0;
  uint64_t NextRuleId = 0;
  DigramTable<Symbol *> Index;
  std::vector<Rule *> MaybeUnderused;

  /// Number of symbols per arena slab.
  static constexpr size_t SymbolsPerSlab = 2048;
  /// Number of rules per arena slab.
  static constexpr size_t RulesPerSlab = 256;
  std::vector<Symbol *> SymbolSlabs; ///< Each: new Symbol[SymbolsPerSlab].
  std::vector<Rule *> RuleSlabs;     ///< Each: new Rule[RulesPerSlab].
  size_t SymbolSlabUsed = SymbolsPerSlab; ///< Bump cursor in newest slab.
  size_t RuleSlabUsed = RulesPerSlab;
  Symbol *SymbolFreeList = nullptr;    ///< Reusable slots (chained via Next).
  Symbol *SymbolPendingList = nullptr; ///< Freed since the last append().
  Rule *RuleFreeList = nullptr;        ///< Chained via LiveNext.
  Rule *RulePendingList = nullptr;
  /// Intrusive doubly-linked list of live rules (unordered), for the
  /// whole-grammar walks (totalBodySymbols, the validator).
  Rule *LiveRuleHead = nullptr;
  size_t NumLiveRules = 0;
};

} // namespace sequitur
} // namespace orp

#endif // ORP_SEQUITUR_SEQUITUR_H
