//===- memsim/Allocator.h - Simulated heap allocator interface -*- C++ -*-===//
//
// Part of the ORP reproduction of "Exposing Memory Access Regularities
// Using Object-Relative Memory Profiling" (CGO 2004).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The SimAllocator interface and statistics. The paper's motivation
/// (Section 1, Figure 1) is that heap allocators impose confounding
/// artifacts on raw addresses: nodes of one list are scattered, freed
/// addresses are reused for unrelated objects, and different allocator
/// libraries lay out the same allocation sequence differently. The
/// concrete allocators behind this interface reproduce exactly those
/// artifacts so that object-relative translation has something real to
/// factor out.
///
//===----------------------------------------------------------------------===//

#ifndef ORP_MEMSIM_ALLOCATOR_H
#define ORP_MEMSIM_ALLOCATOR_H

#include <cstdint>
#include <memory>

namespace orp {
namespace memsim {

/// Placement policy implemented by a simulated allocator.
enum class AllocPolicy {
  FirstFit,   ///< Address-ordered first fit with coalescing.
  BestFit,    ///< Smallest sufficient free block, ties by address.
  NextFit,    ///< First fit resuming from the last placement point.
  Segregated, ///< Power-of-two size classes with LIFO reuse.
};

/// True when \p Raw names an AllocPolicy: the check a policy byte from
/// a trace header or a wire frame must pass before it is cast.
constexpr bool isValidAllocPolicy(uint64_t Raw) {
  return Raw <= static_cast<uint64_t>(AllocPolicy::Segregated);
}

/// Returns a short human-readable name for \p Policy.
const char *allocPolicyName(AllocPolicy Policy);

/// Counters exposed by every simulated allocator.
struct AllocatorStats {
  uint64_t AllocCalls = 0;     ///< Number of successful allocations.
  uint64_t FreeCalls = 0;      ///< Number of deallocations.
  uint64_t FailedAllocs = 0;   ///< Allocations refused (OOM / bad size).
  uint64_t BytesRequested = 0; ///< Sum of requested payload sizes.
  uint64_t LiveBytes = 0;      ///< Currently allocated payload bytes.
  uint64_t PeakLiveBytes = 0;  ///< High-water mark of LiveBytes.
  uint64_t HeapExtent = 0;     ///< Bytes of heap segment ever used.
  uint64_t FreeListScans = 0;  ///< Free blocks examined during placement.
};

/// Abstract simulated heap allocator over the Heap segment of the
/// simulated address space.
class SimAllocator {
public:
  virtual ~SimAllocator();

  /// Allocates \p Size payload bytes aligned to \p Align (a power of two).
  /// Returns the payload address, or 0 when the request cannot be
  /// satisfied. Size 0 is treated as size 1 (as malloc does).
  virtual uint64_t allocate(uint64_t Size, uint64_t Align = 16) = 0;

  /// Releases the block whose payload starts at \p Addr. \p Addr must have
  /// been returned by allocate() on this allocator and not yet freed.
  virtual void deallocate(uint64_t Addr) = 0;

  /// Returns the payload size of the live block at \p Addr, or 0 if \p Addr
  /// is not a live payload address.
  virtual uint64_t liveBlockSize(uint64_t Addr) const = 0;

  /// Returns the placement policy of this allocator.
  virtual AllocPolicy policy() const = 0;

  /// Returns accumulated counters.
  const AllocatorStats &stats() const { return Stats; }

protected:
  AllocatorStats Stats;
};

/// Creates an allocator with the given placement \p Policy. \p Seed
/// perturbs internal layout decisions that real allocators derive from
/// environment noise (e.g. the initial break offset), so different seeds
/// model different runs of the same program.
std::unique_ptr<SimAllocator> createAllocator(AllocPolicy Policy,
                                              uint64_t Seed = 0);

} // namespace memsim
} // namespace orp

#endif // ORP_MEMSIM_ALLOCATOR_H
