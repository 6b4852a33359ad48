//===- advisor/AdvisorReport.cpp - The .orpa advice artifact -------------===//

#include "advisor/AdvisorReport.h"

#include "support/ArtifactFrame.h"
#include "support/VarInt.h"

#include <algorithm>

using namespace orp;
using namespace orp::advisor;

bool orp::advisor::placementRankBefore(const PlacementAdvice &A,
                                       const PlacementAdvice &B) {
  // Density compared exactly by cross-multiplication: A.Access/A.Foot >
  // B.Access/B.Foot  <=>  A.Access*B.Foot > B.Access*A.Foot. A zero
  // footprint with accesses is infinitely dense and sorts first.
  using U128 = unsigned __int128;
  U128 Lhs = static_cast<U128>(A.AccessCount) * B.FootprintBytes;
  U128 Rhs = static_cast<U128>(B.AccessCount) * A.FootprintBytes;
  bool AInf = A.FootprintBytes == 0 && A.AccessCount != 0;
  bool BInf = B.FootprintBytes == 0 && B.AccessCount != 0;
  if (AInf != BInf)
    return AInf;
  if (!AInf && Lhs != Rhs)
    return Lhs > Rhs;
  if (A.AccessCount != B.AccessCount)
    return A.AccessCount > B.AccessCount;
  if (A.FootprintBytes != B.FootprintBytes)
    return A.FootprintBytes < B.FootprintBytes;
  return A.Group < B.Group;
}

bool orp::advisor::layoutRankBefore(const LayoutAdvice &A,
                                    const LayoutAdvice &B) {
  if (A.PairCount != B.PairCount)
    return A.PairCount > B.PairCount;
  if (A.Group != B.Group)
    return A.Group < B.Group;
  if (A.OffA != B.OffA)
    return A.OffA < B.OffA;
  return A.OffB < B.OffB;
}

size_t AdvisorReport::hotGroupCount() const {
  size_t N = 0;
  for (const PlacementAdvice &P : Placement)
    N += P.Hot ? 1 : 0;
  return N;
}

size_t AdvisorReport::poolCandidateCount() const {
  size_t N = 0;
  for (const PlacementAdvice &P : Placement)
    N += P.PoolCandidate ? 1 : 0;
  return N;
}

namespace {

constexpr uint8_t kFlagHot = 1;
constexpr uint8_t kFlagPool = 2;

} // namespace

std::vector<uint8_t> AdvisorReport::serialize() const {
  std::vector<uint8_t> Out;
  support::beginFrame(kMagic, kFormatVersion, Out);

  // Re-establish the canonical orders so the image is independent of
  // how the vectors were populated.
  std::vector<PlacementAdvice> Plan = Placement;
  std::sort(Plan.begin(), Plan.end(), placementRankBefore);
  std::vector<LayoutAdvice> Pairs = Layout;
  std::sort(Pairs.begin(), Pairs.end(), layoutRankBefore);
  std::vector<PrefetchAdvice> Loads = Prefetch;
  std::sort(Loads.begin(), Loads.end(),
            [](const PrefetchAdvice &A, const PrefetchAdvice &B) {
              return A.Instr < B.Instr;
            });

  encodeULEB128(Plan.size(), Out);
  for (const PlacementAdvice &P : Plan) {
    encodeULEB128(P.Group, Out);
    encodeULEB128(P.AccessCount, Out);
    encodeULEB128(P.FootprintBytes, Out);
    encodeULEB128(P.ObjectCount, Out);
    encodeULEB128(P.MeanLifetime, Out);
    Out.push_back(static_cast<uint8_t>((P.Hot ? kFlagHot : 0) |
                                       (P.PoolCandidate ? kFlagPool : 0)));
  }
  encodeULEB128(Pairs.size(), Out);
  for (const LayoutAdvice &L : Pairs) {
    encodeULEB128(L.Group, Out);
    encodeULEB128(L.OffA, Out);
    encodeULEB128(L.OffB, Out);
    encodeULEB128(L.PairCount, Out);
  }
  encodeULEB128(Loads.size(), Out);
  for (const PrefetchAdvice &P : Loads) {
    encodeULEB128(P.Instr, Out);
    encodeSLEB128(P.Stride, Out);
    encodeULEB128(P.SharePermille, Out);
    encodeULEB128(P.Distance, Out);
  }
  support::sealFrame(Out);
  return Out;
}

bool AdvisorReport::deserialize(const std::vector<uint8_t> &Bytes,
                                AdvisorReport &Out, std::string &Err) {
  Out = AdvisorReport();
  support::ByteCursor C = support::openFrame(Bytes, kMagic, kFormatVersion,
                                             "advice report", Err);

  uint64_t NumPlan = 0;
  // Each placement entry occupies at least 6 payload bytes.
  if (!C.readU("placement count", NumPlan) ||
      !C.checkCount("placement count", NumPlan, 6))
    return false;
  Out.Placement.reserve(NumPlan);
  for (uint64_t I = 0; I != NumPlan; ++I) {
    PlacementAdvice P;
    uint64_t Group = 0;
    uint8_t Flags = 0;
    if (!C.readU("placement group", Group) ||
        !C.readU("placement accesses", P.AccessCount) ||
        !C.readU("placement footprint", P.FootprintBytes) ||
        !C.readU("placement objects", P.ObjectCount) ||
        !C.readU("placement lifetime", P.MeanLifetime) ||
        !C.readByte("placement flags", Flags))
      return false;
    if (Group > ~static_cast<omc::GroupId>(0))
      return C.fail("placement group id out of range");
    P.Group = static_cast<omc::GroupId>(Group);
    if (Flags & ~(kFlagHot | kFlagPool))
      return C.fail("unknown placement flags");
    P.Hot = (Flags & kFlagHot) != 0;
    P.PoolCandidate = (Flags & kFlagPool) != 0;
    if (P.ObjectCount == 0 && P.FootprintBytes != 0)
      return C.fail("placement footprint without objects");
    // The serialized order is the rank; anything else is a forgery or
    // corruption (and would break the canonical-serialization fixpoint).
    if (!Out.Placement.empty() &&
        !placementRankBefore(Out.Placement.back(), P))
      return C.fail("placement entries out of rank order");
    Out.Placement.push_back(P);
  }

  uint64_t NumLayout = 0;
  // Each layout entry occupies at least 4 payload bytes.
  if (!C.readU("layout count", NumLayout) ||
      !C.checkCount("layout count", NumLayout, 4))
    return false;
  Out.Layout.reserve(NumLayout);
  for (uint64_t I = 0; I != NumLayout; ++I) {
    LayoutAdvice L;
    uint64_t Group = 0;
    if (!C.readU("layout group", Group) || !C.readU("layout offA", L.OffA) ||
        !C.readU("layout offB", L.OffB) ||
        !C.readU("layout pair count", L.PairCount))
      return false;
    if (Group > ~static_cast<omc::GroupId>(0))
      return C.fail("layout group id out of range");
    L.Group = static_cast<omc::GroupId>(Group);
    if (L.OffA >= L.OffB)
      return C.fail("layout offsets not ascending");
    if (L.PairCount == 0)
      return C.fail("layout entry with zero pair count");
    if (!Out.Layout.empty() && !layoutRankBefore(Out.Layout.back(), L))
      return C.fail("layout entries out of canonical order");
    Out.Layout.push_back(L);
  }

  uint64_t NumPrefetch = 0;
  // Each prefetch entry occupies at least 4 payload bytes.
  if (!C.readU("prefetch count", NumPrefetch) ||
      !C.checkCount("prefetch count", NumPrefetch, 4))
    return false;
  Out.Prefetch.reserve(NumPrefetch);
  for (uint64_t I = 0; I != NumPrefetch; ++I) {
    PrefetchAdvice P;
    uint64_t Instr = 0, Share = 0, Distance = 0;
    if (!C.readU("prefetch instruction", Instr) ||
        !C.readS("prefetch stride", P.Stride) ||
        !C.readU("prefetch share", Share) ||
        !C.readU("prefetch distance", Distance))
      return false;
    if (Instr > ~static_cast<trace::InstrId>(0))
      return C.fail("prefetch instruction id out of range");
    P.Instr = static_cast<trace::InstrId>(Instr);
    if (Share == 0 || Share > 1000)
      return C.fail("prefetch share outside (0, 1000]");
    P.SharePermille = static_cast<uint32_t>(Share);
    if (Distance == 0 || Distance > 4096)
      return C.fail("prefetch distance outside (0, 4096]");
    P.Distance = static_cast<uint32_t>(Distance);
    if (P.Stride == 0)
      return C.fail("prefetch entry with zero stride");
    if (!Out.Prefetch.empty() && Out.Prefetch.back().Instr >= P.Instr)
      return C.fail("prefetch instructions not strictly increasing");
    Out.Prefetch.push_back(P);
  }
  return C.expectEnd();
}
