//===- omc/OmcCheckpoint.cpp - OMC state snapshot/restore ----------------===//

#include "omc/OmcCheckpoint.h"

#include "support/VarInt.h"

#include <algorithm>

using namespace orp;
using namespace orp::omc;

void OmcCheckpoint::serialize(const ObjectManager &Omc,
                              std::vector<uint8_t> &Out) {
  // Groups: the site behind each dense GroupId plus its serial counter.
  // GroupSites is already in GroupId order, so the image is
  // deterministic; SiteToGroup is its inverse and is rebuilt on restore.
  encodeULEB128(Omc.GroupSites.size(), Out);
  for (size_t G = 0; G != Omc.GroupSites.size(); ++G) {
    encodeULEB128(Omc.GroupSites[G], Out);
    encodeULEB128(Omc.NextSerial[G], Out);
  }

  // Pool-splitting parameters, sorted by site for deterministic bytes.
  std::vector<std::pair<trace::AllocSiteId, uint64_t>> Pools;
  Pools.reserve(Omc.PoolElementSize.size());
  // orp-lint: allow(unordered-serial): feeds the sort below.
  for (const auto &[Site, ElementSize] : Omc.PoolElementSize)
    Pools.emplace_back(Site, ElementSize);
  std::sort(Pools.begin(), Pools.end());
  encodeULEB128(Pools.size(), Out);
  for (const auto &[Site, ElementSize] : Pools) {
    encodeULEB128(Site, Out);
    encodeULEB128(ElementSize, Out);
  }

  // Object records in ObjectId order, each with its pool base serial.
  // The live interval set is implied: records with FreeTime ==
  // kLiveForever are exactly the LiveIndex entries.
  encodeULEB128(Omc.Records.size(), Out);
  for (size_t I = 0; I != Omc.Records.size(); ++I) {
    const ObjectRecord &Rec = Omc.Records[I];
    encodeULEB128(Rec.Group, Out);
    encodeULEB128(Rec.Serial, Out);
    encodeULEB128(Rec.Site, Out);
    encodeULEB128(Rec.Base, Out);
    encodeULEB128(Rec.Size, Out);
    encodeULEB128(Rec.AllocTime, Out);
    bool Freed = Rec.FreeTime != ObjectManager::kLiveForever;
    Out.push_back(Freed ? 1 : 0);
    if (Freed)
      encodeULEB128(Rec.FreeTime, Out);
    Out.push_back(Rec.IsStatic ? 1 : 0);
    uint64_t PoolBase = Omc.PoolBaseSerial[I];
    bool HasPoolBase = PoolBase != ~0ULL;
    Out.push_back(HasPoolBase ? 1 : 0);
    if (HasPoolBase)
      encodeULEB128(PoolBase, Out);
  }
}

bool OmcCheckpoint::restore(support::ByteCursor &C, ObjectManager &Omc) {
  if (!Omc.Records.empty() || !Omc.GroupSites.empty() ||
      !Omc.PoolElementSize.empty())
    return C.fail("restore target is not freshly constructed");

  uint64_t NumGroups = 0;
  if (!C.readU("group count", NumGroups) ||
      !C.checkCount("group count", NumGroups, 2))
    return false;
  Omc.GroupSites.reserve(NumGroups);
  Omc.NextSerial.reserve(NumGroups);
  for (uint64_t G = 0; G != NumGroups; ++G) {
    uint64_t Site = 0, Next = 0;
    if (!C.readU("group site", Site) || !C.readU("group next serial", Next))
      return false;
    auto SiteId = static_cast<trace::AllocSiteId>(Site);
    if (!Omc.SiteToGroup.emplace(SiteId, static_cast<GroupId>(G)).second)
      return C.fail("duplicate group site");
    Omc.GroupSites.push_back(SiteId);
    Omc.NextSerial.push_back(Next);
  }

  uint64_t NumPools = 0;
  if (!C.readU("pool count", NumPools) ||
      !C.checkCount("pool count", NumPools, 2))
    return false;
  for (uint64_t P = 0; P != NumPools; ++P) {
    uint64_t Site = 0, ElementSize = 0;
    if (!C.readU("pool site", Site) ||
        !C.readU("pool element size", ElementSize))
      return false;
    if (ElementSize == 0)
      return C.fail("zero pool element size");
    if (!Omc.PoolElementSize
             .emplace(static_cast<trace::AllocSiteId>(Site), ElementSize)
             .second)
      return C.fail("duplicate pool site");
  }

  uint64_t NumRecords = 0;
  // Each record is at least 9 bytes (six varints plus three flags).
  if (!C.readU("record count", NumRecords) ||
      !C.checkCount("record count", NumRecords, 9))
    return false;
  Omc.Records.reserve(NumRecords);
  Omc.PoolBaseSerial.reserve(NumRecords);
  for (uint64_t I = 0; I != NumRecords; ++I) {
    ObjectRecord Rec;
    uint64_t Group = 0, Site = 0;
    bool Freed = false, IsStatic = false, HasPoolBase = false;
    if (!C.readU("record group", Group) ||
        !C.readU("record serial", Rec.Serial) ||
        !C.readU("record site", Site) || !C.readU("record base", Rec.Base) ||
        !C.readU("record size", Rec.Size) ||
        !C.readU("record alloc time", Rec.AllocTime))
      return false;
    if (Group >= NumGroups)
      return C.fail("record references unknown group");
    Rec.Group = static_cast<GroupId>(Group);
    Rec.Site = static_cast<trace::AllocSiteId>(Site);
    Rec.FreeTime = ObjectManager::kLiveForever;
    if (!C.readFlag("freed flag", Freed))
      return false;
    if (Freed && !C.readU("record free time", Rec.FreeTime))
      return false;
    if (!C.readFlag("static flag", IsStatic))
      return false;
    Rec.IsStatic = IsStatic;
    uint64_t PoolBase = ~0ULL;
    if (!C.readFlag("pool flag", HasPoolBase))
      return false;
    if (HasPoolBase) {
      if (!C.readU("pool base serial", PoolBase))
        return false;
      if (Omc.PoolElementSize.find(Rec.Site) == Omc.PoolElementSize.end())
        return C.fail("pool record for a non-pool site");
    }
    if (Rec.Size == 0 || Rec.Base + Rec.Size < Rec.Base)
      return C.fail("record with empty or wrapping range");
    if (Rec.FreeTime == ObjectManager::kLiveForever) {
      // Re-grow the live interval index; overlapping live ranges mean
      // the checkpoint is corrupt (the tree requires disjointness).
      if (Omc.LiveIndex.overlapsRange(Rec.Base, Rec.Base + Rec.Size))
        return C.fail("overlapping live objects");
      Omc.LiveIndex.insert(Rec.Base, Rec.Base + Rec.Size,
                           Omc.Records.size());
    }
    Omc.Records.push_back(Rec);
    Omc.PoolBaseSerial.push_back(PoolBase);
  }
  return true;
}
