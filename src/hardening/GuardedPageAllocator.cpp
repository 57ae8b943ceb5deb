//===- hardening/GuardedPageAllocator.cpp - Sampled guard pages ----------===//

#include "hardening/GuardedPageAllocator.h"
#include "hardening/Hardening.h"
#include "hardening/Pattern.h"

#include <sys/mman.h>
#include <unistd.h>

using namespace ddm;

namespace {

/// Sampled objects are 16-byte aligned (stricter than the TxAllocator
/// floor of 8) so right-alignment never breaks the alignment contract.
constexpr size_t GuardAlign = 16;

} // namespace

GuardedPageAllocator::GuardedPageAllocator(uint32_t Slots, uint64_t S)
    : Seed(S) {
  if (Slots == 0)
    return;
  long Page = sysconf(_SC_PAGESIZE);
  PageBytes = Page > 0 ? static_cast<size_t>(Page) : 4096;
  MappedBytes = (2ull * Slots + 1) * PageBytes;
  void *Map = mmap(nullptr, MappedBytes, PROT_NONE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (Map == MAP_FAILED) {
    MappedBytes = 0;
    return; // available() stays false; the owner skips sampling.
  }
  Base = static_cast<std::byte *>(Map);
  Info.resize(Slots);
  for (uint32_t I = 0; I < Slots; ++I)
    FreeSlots.push_back(I);
}

GuardedPageAllocator::~GuardedPageAllocator() {
  if (Base)
    munmap(Base, MappedBytes);
}

void *GuardedPageAllocator::allocate(size_t Size) {
  if (!Base || FreeSlots.empty() || Size > PageBytes)
    return nullptr;
  size_t Rounded = ((Size ? Size : 1) + GuardAlign - 1) & ~(GuardAlign - 1);
  if (Rounded > PageBytes)
    return nullptr;
  uint32_t Slot = FreeSlots.front();
  FreeSlots.pop_front();
  std::byte *Data = dataPage(Slot);
  if (mprotect(Data, PageBytes, PROT_READ | PROT_WRITE) != 0) {
    FreeSlots.push_front(Slot);
    return nullptr;
  }
  std::byte *User = Data + PageBytes - Rounded;
  SlotInfo &S = Info[Slot];
  S.UserPtr = User;
  S.UserSize = Size;
  S.InUse = true;
  ++Live;
  // Fill the rounding slack past the object end with the pattern; a small
  // overflow that stops short of the guard page still gets caught at free.
  fillPattern(User + Size, Rounded - Size, patternWord(User, Seed));
  return User;
}

bool GuardedPageAllocator::verifySlack(uint32_t Slot,
                                       CorruptionReport &Report) {
  const SlotInfo &S = Info[Slot];
  auto *SlackBegin = static_cast<uint8_t *>(S.UserPtr) + S.UserSize;
  size_t Slack = static_cast<size_t>(
      reinterpret_cast<uint8_t *>(dataPage(Slot) + PageBytes) - SlackBegin);
  uint64_t Word = patternWord(S.UserPtr, Seed);
  size_t Bad = patternMismatch(SlackBegin, Slack, Word);
  if (Bad == Slack)
    return true;
  Report.Kind = CorruptionKind::GuardViolation;
  Report.Site = "guard_free";
  Report.ByteOffset = S.UserSize + Bad;
  Report.Expected = patternByte(Word, Bad);
  Report.Found = SlackBegin[Bad];
  Report.UserSize = S.UserSize;
  return false;
}

void GuardedPageAllocator::protectSlot(uint32_t Slot) {
  SlotInfo &S = Info[Slot];
  mprotect(dataPage(Slot), PageBytes, PROT_NONE);
  S.InUse = false;
  S.UserPtr = nullptr;
  S.UserSize = 0;
  --Live;
  FreeSlots.push_back(Slot);
}

bool GuardedPageAllocator::deallocate(void *Ptr, CorruptionReport &Report) {
  auto Offset = static_cast<size_t>(static_cast<std::byte *>(Ptr) - Base);
  auto Slot = static_cast<uint32_t>(Offset / (2 * PageBytes));
  bool Ok = Slot < Info.size() && Info[Slot].InUse &&
            Info[Slot].UserPtr == Ptr;
  if (!Ok) {
    // Mid-object or already-freed pointer into the pool: report as a
    // clobbered reference; nothing further can safely be freed.
    Report.Kind = CorruptionKind::HeaderClobber;
    Report.Site = "guard_free";
    Report.ByteOffset = 0;
    Report.Expected = 0;
    Report.Found = 0;
    Report.UserSize = 0;
    return false;
  }
  bool Clean = verifySlack(Slot, Report);
  protectSlot(Slot);
  return Clean;
}

unsigned GuardedPageAllocator::freeAllLive(CorruptionReport &Report) {
  unsigned Mismatches = 0;
  for (uint32_t Slot = 0; Slot < Info.size(); ++Slot) {
    if (!Info[Slot].InUse)
      continue;
    CorruptionReport Local;
    if (!verifySlack(Slot, Local)) {
      if (Mismatches == 0)
        Report = Local;
      ++Mismatches;
    }
    protectSlot(Slot);
  }
  return Mismatches;
}

size_t GuardedPageAllocator::usableSize(const void *Ptr) const {
  auto Offset = static_cast<size_t>(static_cast<const std::byte *>(Ptr) - Base);
  auto Slot = static_cast<uint32_t>(Offset / (2 * PageBytes));
  if (Slot < Info.size() && Info[Slot].InUse && Info[Slot].UserPtr == Ptr)
    return Info[Slot].UserSize;
  return 0;
}
