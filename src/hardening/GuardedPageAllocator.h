//===- hardening/GuardedPageAllocator.h - Sampled guard pages --*- C++ -*-===//
///
/// \file
/// A GWP-ASan-style guarded-page pool: each slot is one data page
/// sandwiched between PROT_NONE pages. Sampled objects are right-aligned
/// against the trailing guard page, so an overflow past the object's
/// rounded end traps at the faulting instruction; on free the data page is
/// re-protected PROT_NONE, so a use-after-free access traps too. The few
/// slack bytes between the object end and the page end (alignment
/// rounding) carry a pattern that is verified at free time, catching
/// overflows too small to reach the guard page.
///
/// The pool is fixed-size and slot reuse is FIFO, maximizing the window
/// in which a freed slot stays protected. Everything is deterministic
/// given the allocation sequence: no randomness beyond the seed-derived
/// slack pattern.
///
//===----------------------------------------------------------------------===//

#ifndef DDM_HARDENING_GUARDEDPAGEALLOCATOR_H
#define DDM_HARDENING_GUARDEDPAGEALLOCATOR_H

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

namespace ddm {

struct CorruptionReport;

/// Fixed pool of guarded single-page allocation slots.
class GuardedPageAllocator {
public:
  /// Maps (2 * Slots + 1) pages of PROT_NONE address space. If the OS
  /// refuses, available() is false and the owner must not sample.
  GuardedPageAllocator(uint32_t Slots, uint64_t Seed);
  ~GuardedPageAllocator();

  GuardedPageAllocator(const GuardedPageAllocator &) = delete;
  GuardedPageAllocator &operator=(const GuardedPageAllocator &) = delete;

  bool available() const { return Base != nullptr; }

  /// Places \p Size bytes right-aligned on a fresh slot's data page.
  /// Returns nullptr when the pool is exhausted or \p Size exceeds one
  /// page — the caller falls back to its normal path.
  void *allocate(size_t Size);

  /// True if \p Ptr lies inside the pool's address range.
  bool owns(const void *Ptr) const {
    auto P = reinterpret_cast<uintptr_t>(Ptr);
    auto B = reinterpret_cast<uintptr_t>(Base);
    return Base && P >= B && P < B + MappedBytes;
  }

  /// Frees the sampled object: verifies the slack pattern, re-protects the
  /// page, and queues the slot for (delayed, FIFO) reuse. On a slack
  /// mismatch fills \p Report and returns false; the slot is still freed.
  bool deallocate(void *Ptr, CorruptionReport &Report);

  /// Frees every live slot (bulk-free semantics); slack mismatches are
  /// reported through \p Report — only the first one is kept, the return
  /// value counts them.
  unsigned freeAllLive(CorruptionReport &Report);

  /// Requested size of the live object at \p Ptr (0 if not live here).
  size_t usableSize(const void *Ptr) const;

  /// Address space held by the pool (guard pages included).
  uint64_t mappedBytes() const { return MappedBytes; }

  uint32_t liveSlots() const { return Live; }

private:
  struct SlotInfo {
    void *UserPtr = nullptr;
    size_t UserSize = 0;
    bool InUse = false;
  };

  std::byte *dataPage(uint32_t Slot) const {
    return Base + (2 * static_cast<size_t>(Slot) + 1) * PageBytes;
  }
  bool verifySlack(uint32_t Slot, CorruptionReport &Report);
  void protectSlot(uint32_t Slot);

  std::byte *Base = nullptr;
  size_t PageBytes = 0;
  uint64_t MappedBytes = 0;
  uint64_t Seed = 0;
  std::vector<SlotInfo> Info;
  std::deque<uint32_t> FreeSlots; ///< FIFO: oldest-freed slot reused last.
  uint32_t Live = 0;
};

} // namespace ddm

#endif // DDM_HARDENING_GUARDEDPAGEALLOCATOR_H
