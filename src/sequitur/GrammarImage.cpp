//===- sequitur/GrammarImage.cpp - Checked grammar-image view ------------===//

#include "sequitur/GrammarImage.h"

#include "support/ByteCursor.h"

#include <algorithm>

using namespace orp;
using namespace orp::sequitur;

bool GrammarImage::parse(const uint8_t *Data, size_t Size, GrammarImage &Out,
                         std::string &Err, uint64_t MaxTerminals) {
  Out = GrammarImage();
  support::ByteCursor C(Data, Size, "sequitur image", Err);
  uint64_t NumRules = 0, Length = 0;
  if (!C.readU("rule count", NumRules) || !C.readU("input length", Length))
    return false;
  if (NumRules == 0)
    return C.fail("no rules");
  // Every rule needs at least its body-length byte.
  if (!C.checkCount("rule count", NumRules, 1))
    return false;
  if (Length > MaxTerminals)
    return C.fail("declared expansion of " + std::to_string(Length) +
                  " terminals exceeds the cap of " +
                  std::to_string(MaxTerminals));

  GrammarImage G;
  G.BodyBegin.reserve(NumRules + 1);
  for (uint64_t R = 0; R != NumRules; ++R) {
    uint64_t BodyLen = 0;
    if (!C.readU("body length", BodyLen) ||
        !C.checkCount("body length", BodyLen, 1))
      return false;
    G.BodyBegin.push_back(G.Symbols.size());
    for (uint64_t I = 0; I != BodyLen; ++I) {
      uint64_t Code = 0;
      if (!C.readU("symbol", Code))
        return false;
      G.Symbols.push_back(Code >> 1);
      G.IsRule.push_back(Code & 1);
    }
  }
  G.BodyBegin.push_back(G.Symbols.size());
  if (!C.expectEnd())
    return false;
  if (std::string Why = G.index(Length); !Why.empty())
    return C.fail(Why);
  Out = std::move(G);
  return true;
}

std::string GrammarImage::index(uint64_t Length) {
  size_t NumRules = BodyBegin.size() - 1;
  std::vector<uint64_t> Uses(NumRules, 0);
  for (size_t R = 0; R != NumRules; ++R) {
    if (R != 0 && BodyBegin[R + 1] - BodyBegin[R] < 2)
      return "rule " + std::to_string(R) + " has fewer than two symbols";
    for (size_t S = BodyBegin[R]; S != BodyBegin[R + 1]; ++S) {
      if (!IsRule[S])
        continue;
      if (Symbols[S] >= NumRules)
        return "rule reference out of range";
      ++Uses[Symbols[S]];
    }
  }

  // Kahn's algorithm from the start rule. A rule nothing references
  // cannot be reached; if every rule is referenced yet the walk stalls,
  // the references close a cycle.
  for (size_t R = 1; R != NumRules; ++R)
    if (Uses[R] == 0)
      return "rule " + std::to_string(R) + " is unreachable";
  Topo.reserve(NumRules);
  if (Uses[0] == 0)
    Topo.push_back(0);
  for (size_t I = 0; I != Topo.size(); ++I) {
    size_t R = Topo[I];
    for (size_t S = BodyBegin[R]; S != BodyBegin[R + 1]; ++S)
      if (IsRule[S] && --Uses[Symbols[S]] == 0)
        Topo.push_back(Symbols[S]);
  }
  if (Topo.size() != NumRules)
    return "cyclic rule references";

  // Expanded lengths, referenced rules first. No rule may expand past
  // the declared length, which also stops hostile nested doublings long
  // before a sum could wrap.
  Expanded.assign(NumRules, 0);
  for (auto It = Topo.rbegin(); It != Topo.rend(); ++It) {
    uint64_t &Len = Expanded[*It];
    for (size_t S = BodyBegin[*It]; S != BodyBegin[*It + 1]; ++S) {
      uint64_t Add = IsRule[S] ? Expanded[Symbols[S]] : 1;
      Len += Add;
      if (Len < Add || Len > Length)
        return "rule " + std::to_string(*It) +
               " expands past the declared length of " +
               std::to_string(Length);
    }
  }
  if (Expanded[0] != Length)
    return "start rule expands to " + std::to_string(Expanded[0]) +
           " terminals, header declares " + std::to_string(Length);

  // Occurrences, referencing rules first: the start rule occurs once and
  // every use inside rule P adds P's count. Occurrences of a rule are
  // disjoint spans of the input, so no count exceeds Length.
  Occurrences.assign(NumRules, 0);
  Occurrences[0] = 1;
  for (size_t R : Topo)
    for (size_t S = BodyBegin[R]; S != BodyBegin[R + 1]; ++S)
      if (IsRule[S])
        Occurrences[Symbols[S]] += Occurrences[R];
  return "";
}

std::vector<RuleStats> GrammarImage::ruleStats(size_t PrefixCap) const {
  std::vector<RuleStats> Stats(numRules());
  // Referenced rules first, so a body's prefix concatenates the
  // finished prefixes of the rules it uses.
  for (auto It = Topo.rbegin(); It != Topo.rend(); ++It) {
    size_t R = *It;
    RuleStats &RS = Stats[R];
    RS.Id = R;
    RS.BodyLength = BodyBegin[R + 1] - BodyBegin[R];
    RS.ExpandedLength = Expanded[R];
    RS.Occurrences = Occurrences[R];
    for (size_t S = BodyBegin[R];
         S != BodyBegin[R + 1] && RS.Prefix.size() < PrefixCap; ++S) {
      if (!IsRule[S]) {
        RS.Prefix.push_back(Symbols[S]);
        continue;
      }
      const std::vector<uint64_t> &Sub = Stats[Symbols[S]].Prefix;
      size_t Take = std::min(Sub.size(), PrefixCap - RS.Prefix.size());
      RS.Prefix.insert(RS.Prefix.end(), Sub.begin(), Sub.begin() + Take);
    }
  }
  return Stats;
}

GrammarImage::Expander::Expander(const GrammarImage &Image) : Image(Image) {
  if (Image.numRules() != 0)
    Stack.push_back({Image.BodyBegin[0], Image.BodyBegin[1]});
}

bool GrammarImage::Expander::next(uint64_t &Out) {
  while (!Stack.empty()) {
    Frame &F = Stack.back();
    if (F.At == F.End) {
      Stack.pop_back();
      continue;
    }
    size_t S = F.At++;
    if (!Image.IsRule[S]) {
      Out = Image.Symbols[S];
      return true;
    }
    size_t R = Image.Symbols[S];
    Stack.push_back({Image.BodyBegin[R], Image.BodyBegin[R + 1]});
  }
  return false;
}
