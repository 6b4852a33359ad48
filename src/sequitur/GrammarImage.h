//===- sequitur/GrammarImage.h - Checked grammar-image view ----*- C++ -*-===//
//
// Part of the ORP reproduction of "Exposing Memory Access Regularities
// Using Object-Relative Memory Profiling" (CGO 2004).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one reader of the image SequiturGrammar::serialize() writes: a
/// ULEB128 rule count and expanded length, then per rule (start rule
/// first) a ULEB128 body length and its symbol codes, terminal << 1 or
/// rule number << 1 | 1. The view validates the bytes once, answers rule
/// statistics from one topological pass over the rule DAG, and streams
/// the terminals in O(nesting depth) memory. DESIGN.md section 17 lists
/// the checks, including two shapes Sequitur never emits.
///
//===----------------------------------------------------------------------===//

#ifndef ORP_SEQUITUR_GRAMMARIMAGE_H
#define ORP_SEQUITUR_GRAMMARIMAGE_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace orp {
namespace sequitur {

class SequiturGrammar;

/// Aggregate statistics of one grammar rule, for grammar-mining
/// consumers (e.g. Chilimbi & Hirzel's hot-data-stream extraction).
struct RuleStats {
  uint64_t Id;             ///< Dense rule number (0 = start rule).
  size_t BodyLength;       ///< Symbols in the rule body.
  uint64_t ExpandedLength; ///< Terminals the rule expands to.
  uint64_t Occurrences;    ///< Expansions within the whole input.
  std::vector<uint64_t> Prefix; ///< First terminals, up to a cap.
};

/// A validated, read-only view of one serialized Sequitur grammar.
class GrammarImage {
public:
  /// Default cap on the declared expansion: a tiny hostile image can
  /// declare an astronomically long one.
  static constexpr uint64_t kDefaultMaxExpandedTerminals = 1ULL << 26;

  /// Parses and validates \p Size bytes at \p Data into \p Out, or
  /// returns false with a diagnostic in \p Err. Never reads out of
  /// bounds; memory is bounded by \p Size and work by \p Size plus the
  /// declared length, which may not exceed \p MaxTerminals.
  [[nodiscard]] static bool
  parse(const uint8_t *Data, size_t Size, GrammarImage &Out, std::string &Err,
        uint64_t MaxTerminals = kDefaultMaxExpandedTerminals);

  [[nodiscard]] static bool
  parse(const std::vector<uint8_t> &Bytes, GrammarImage &Out,
        std::string &Err,
        uint64_t MaxTerminals = kDefaultMaxExpandedTerminals) {
    return parse(Bytes.data(), Bytes.size(), Out, Err, MaxTerminals);
  }

  /// Terminals the grammar expands to (the image header's length).
  uint64_t expandedLength() const { return Expanded.empty() ? 0 : Expanded[0]; }

  /// Number of rules, start rule included.
  size_t numRules() const { return Expanded.size(); }

  /// Symbols across all rule bodies.
  size_t totalBodySymbols() const { return Symbols.size(); }

  /// Returns the statistics of every rule in rule-number order, each
  /// with at most \p PrefixCap terminals of its expansion.
  std::vector<RuleStats> ruleStats(size_t PrefixCap = 16) const;

  /// Streams the grammar's terminals in order, keeping one frame per
  /// nesting level. The image must outlive the expander.
  class Expander {
  public:
    explicit Expander(const GrammarImage &Image);

    /// Stores the next terminal in \p Out; false once the expansion is
    /// exhausted.
    bool next(uint64_t &Out);

  private:
    /// The unread part [At, End) of one rule body in Symbols.
    struct Frame {
      size_t At;
      size_t End;
    };
    const GrammarImage &Image;
    std::vector<Frame> Stack;
  };

private:
  /// SequiturGrammar::ruleStats() fills the bodies from its live rules,
  /// whose terminals may use all 64 bits, and runs index() itself.
  friend class SequiturGrammar;

  /// Checks the rule DAG the bodies describe against the declared
  /// \p Length, orders it and fills Expanded and Occurrences. Returns
  /// why the grammar is malformed, or an empty string.
  std::string index(uint64_t Length);

  /// Every body's symbols, rule after rule: a terminal, or where IsRule
  /// is nonzero a rule number.
  std::vector<uint64_t> Symbols;
  std::vector<uint8_t> IsRule;
  /// Rule R's body is Symbols[BodyBegin[R], BodyBegin[R + 1]).
  std::vector<size_t> BodyBegin;
  /// Rules ordered so that every rule precedes the rules it references.
  std::vector<size_t> Topo;
  /// Per rule: terminals it expands to, and its expansions in the input.
  std::vector<uint64_t> Expanded;
  std::vector<uint64_t> Occurrences;
};

} // namespace sequitur
} // namespace orp

#endif // ORP_SEQUITUR_GRAMMARIMAGE_H
