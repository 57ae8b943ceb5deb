//===- hardening/HardenedAllocator.cpp - Corruption-detecting wrapper ----===//

#include "hardening/Hardening.h"
#include "hardening/Pattern.h"

#include "support/Error.h"
#include "support/FaultInjection.h"

#include <cassert>
#include <cstring>

using namespace ddm;

namespace {

constexpr uint64_t LiveSalt = 0xa11c0a11c0ull;
constexpr uint64_t FreedSalt = 0xdeadf4eedull;

std::string hexByte(uint8_t B) {
  char Buf[8];
  std::snprintf(Buf, sizeof(Buf), "0x%02x", B);
  return Buf;
}

} // namespace

const char *ddm::corruptionKindName(CorruptionKind Kind) {
  switch (Kind) {
  case CorruptionKind::RedzoneOverflow:
    return "redzone-overflow";
  case CorruptionKind::UseAfterFree:
    return "use-after-free";
  case CorruptionKind::DoubleFree:
    return "double-free";
  case CorruptionKind::HeaderClobber:
    return "header-clobber";
  case CorruptionKind::GuardViolation:
    return "guard-violation";
  }
  return "?";
}

std::string CorruptionReport::describe() const {
  std::string What;
  switch (Kind) {
  case CorruptionKind::RedzoneOverflow:
    What = "redzone overflow past object end";
    break;
  case CorruptionKind::UseAfterFree:
    What = "use-after-free write to a quarantined object";
    break;
  case CorruptionKind::DoubleFree:
    What = "double free";
    break;
  case CorruptionKind::HeaderClobber:
    What = "foreign pointer or clobbered object header";
    break;
  case CorruptionKind::GuardViolation:
    What = "overflow into a guarded page's slack";
    break;
  }
  return "heap corruption detected: " + What + ": allocator=" + Allocator +
         " site=" + Site + " offset=" + std::to_string(ByteOffset) +
         " expected=" + hexByte(Expected) + " found=" + hexByte(Found) +
         " size=" + std::to_string(UserSize);
}

HardenedAllocator::HardenedAllocator(std::unique_ptr<TxAllocator> InnerAlloc,
                                     const HardeningConfig &C)
    : Config(C), Inner(std::move(InnerAlloc)) {
  assert(Inner && "hardened wrapper needs an inner allocator");
  if (Config.GuardSampleEveryN > 0) {
    Guard = std::make_unique<GuardedPageAllocator>(Config.GuardSlots,
                                                   Config.Seed);
    if (!Guard->available())
      Guard.reset();
  }
}

HardenedAllocator::~HardenedAllocator() = default;

uint64_t HardenedAllocator::magicFor(const ObjHeader *H,
                                     uint64_t StateSalt) const {
  return splitmix64(reinterpret_cast<uintptr_t>(H) ^ Config.Seed ^
                    (H->UserSize * 0x9e3779b97f4a7c15ull) ^ StateSalt);
}

HardenedAllocator::ObjState
HardenedAllocator::classify(const ObjHeader *H) const {
  if (H->Magic == magicFor(H, LiveSalt))
    return ObjState::Live;
  if (H->Magic == magicFor(H, FreedSalt))
    return ObjState::Freed;
  return ObjState::Unknown;
}

bool HardenedAllocator::isFreed(const ObjHeader *H) const {
  return H->Magic == magicFor(H, FreedSalt);
}

size_t HardenedAllocator::poisonSpan(uint64_t UserSize) const {
  return static_cast<size_t>(
      UserSize < Config.PoisonCapBytes ? UserSize : Config.PoisonCapBytes);
}

void HardenedAllocator::raise(CorruptionKind Kind, const char *Site,
                              uint64_t ByteOffset, uint8_t Expected,
                              uint8_t Found, uint64_t UserSize) {
  ++HStats.Reports;
  ++HStats.ReportsByKind[static_cast<unsigned>(Kind)];
  CorruptionReport R;
  R.Kind = Kind;
  R.Allocator = Inner->name();
  R.Site = Site;
  R.ByteOffset = ByteOffset;
  R.Expected = Expected;
  R.Found = Found;
  R.UserSize = UserSize;
  if (Handler)
    Handler(R);
  else
    fatal(R.describe());
}

void HardenedAllocator::verifySpan(uint8_t *Span, size_t Len, uint64_t Word,
                                   CorruptionKind Kind, const char *Site,
                                   uint64_t SpanOffset, uint64_t UserSize) {
  size_t Bad = patternMismatch(Span, Len, Word);
  if (Bad == Len)
    return;
  uint8_t Got = Span[Bad];
  // Repair before reporting: a later verification of this object (the
  // free after a realloc-time check, the quarantine drain after a
  // free-time check) must not re-report the same scribble.
  fillPattern(Span, Len, Word);
  raise(Kind, Site, SpanOffset + Bad, patternByte(Word, Bad), Got, UserSize);
}

void HardenedAllocator::verifyRedzone(void *User, const char *Site) {
  ++HStats.RedzoneChecks;
  uint64_t UserSize = headerOf(User)->UserSize;
  verifySpan(static_cast<uint8_t *>(User) + UserSize, Config.RedzoneBytes,
             patternWord(User, Config.Seed), CorruptionKind::RedzoneOverflow,
             Site, UserSize, UserSize);
}

void HardenedAllocator::verifyPoison(void *User, const char *Site) {
  ++HStats.PoisonChecks;
  uint64_t UserSize = headerOf(User)->UserSize;
  verifySpan(static_cast<uint8_t *>(User), poisonSpan(UserSize),
             patternWord(User, Config.Seed ^ FreedSalt),
             CorruptionKind::UseAfterFree, Site, 0, UserSize);
}

void HardenedAllocator::removeFromLive(ObjHeader *H, void *User,
                                       const char *Site) {
  uint64_t Index = H->LiveIndex;
  if (Index < LiveObjects.size() && LiveObjects[Index] == User) {
    void *Moved = LiveObjects.back();
    LiveObjects[Index] = Moved;
    LiveObjects.pop_back();
    if (Moved != User)
      headerOf(Moved)->LiveIndex = Index;
    return;
  }
  // The magic was intact but the live-index slot disagrees: a wild write
  // hit the header's middle word. Report it, then fall back to a scan so
  // the free itself stays safe.
  raise(CorruptionKind::HeaderClobber, Site, 0, 0, 0, H->UserSize);
  for (size_t I = 0; I < LiveObjects.size(); ++I) {
    if (LiveObjects[I] == User) {
      void *Moved = LiveObjects.back();
      LiveObjects[I] = Moved;
      LiveObjects.pop_back();
      if (Moved != User)
        headerOf(Moved)->LiveIndex = I;
      return;
    }
  }
}

void *HardenedAllocator::allocate(size_t Size) {
  if (Guard && ++AllocTick >= Config.GuardSampleEveryN) {
    AllocTick = 0;
    if (void *P = Guard->allocate(Size)) {
      ++HStats.GuardAllocs;
      noteMalloc(Size, Size);
      return P;
    }
    // Pool exhausted or object too large: fall back to the normal path.
  }
  void *Raw = Inner->allocate(HeaderBytes + Size + Config.RedzoneBytes);
  if (!Raw)
    return nullptr;
  auto *H = static_cast<ObjHeader *>(Raw);
  H->UserSize = Size;
  H->LiveIndex = LiveObjects.size();
  H->Magic = magicFor(H, LiveSalt);
  void *User = userOf(H);
  LiveObjects.push_back(User);
  fillPattern(static_cast<uint8_t *>(User) + Size, Config.RedzoneBytes,
              patternWord(User, Config.Seed));
  noteMalloc(Size, Size);
  return User;
}

void HardenedAllocator::deallocate(void *Ptr) {
  if (!Ptr)
    return;
  if (Guard && Guard->owns(Ptr)) {
    CorruptionReport R;
    size_t Size = Guard->usableSize(Ptr);
    if (!Guard->deallocate(Ptr, R)) {
      R.Allocator = Inner->name();
      ++HStats.Reports;
      ++HStats.ReportsByKind[static_cast<unsigned>(R.Kind)];
      if (Handler)
        Handler(R);
      else
        fatal(R.describe());
      if (R.Kind == CorruptionKind::HeaderClobber)
        return; // Nothing was freed.
    }
    noteFree(Size);
    return;
  }

  ObjHeader *H = headerOf(Ptr);
  switch (classify(H)) {
  case ObjState::Freed:
    raise(CorruptionKind::DoubleFree, "deallocate", 0, 0, 0, H->UserSize);
    return;
  case ObjState::Unknown:
    raise(CorruptionKind::HeaderClobber, "deallocate", 0, 0, 0, 0);
    return;
  case ObjState::Live:
    break;
  }

  // Injected overflow: flip one red-zone byte right before verification,
  // proving the verifier catches it (bench_hardening's detection gate).
  if (Config.RedzoneBytes > 0 &&
      faultShouldFail(FaultSite::HeapScribbleOverflow)) {
    auto *RZ = static_cast<uint8_t *>(Ptr) + H->UserSize;
    RZ[OverflowRot++ % Config.RedzoneBytes] ^= 0xff;
  }
  verifyRedzone(Ptr, "deallocate");

  removeFromLive(H, Ptr, "deallocate");
  noteFree(H->UserSize);
  H->Magic = magicFor(H, FreedSalt);

  bool Quarantined = Config.QuarantineSlots > 0 &&
                     Config.QuarantineMaxBytes > 0;
  if (!Quarantined) {
    Inner->deallocate(H);
    return;
  }
  fillPattern(Ptr, poisonSpan(H->UserSize),
              patternWord(Ptr, Config.Seed ^ FreedSalt));
  // Injected use-after-free: flip one poison byte before the entry is
  // parked; the recycle/drain verification must find it. (Scribbling
  // before the push keeps the injection off memory the ring might have
  // already handed back to the inner allocator.)
  if (poisonSpan(H->UserSize) > 0 &&
      faultShouldFail(FaultSite::HeapScribbleUaf)) {
    auto *P = static_cast<uint8_t *>(Ptr);
    P[UafRot++ % poisonSpan(H->UserSize)] ^= 0xff;
  }
  pushQuarantine(Ptr, H->UserSize);
  // Injected double free: free the same pointer again; the freed-state
  // header must be recognized. Only while the entry is still parked — a
  // tiny ring may have recycled it to the inner allocator already.
  if (!Quarantine.empty() && Quarantine.back() == Ptr &&
      faultShouldFail(FaultSite::HeapDoubleFree))
    deallocate(Ptr);
}

void HardenedAllocator::pushQuarantine(void *User, uint64_t UserSize) {
  Quarantine.push_back(User);
  HStats.QuarantinedBytes += UserSize;
  while (!Quarantine.empty() &&
         (Quarantine.size() > Config.QuarantineSlots ||
          HStats.QuarantinedBytes > Config.QuarantineMaxBytes))
    recycleOldest();
}

void HardenedAllocator::recycleOldest() {
  void *User = Quarantine.front();
  Quarantine.pop_front();
  ObjHeader *H = headerOf(User);
  if (!isFreed(H)) {
    // A quarantined entry must still look freed; anything else means its
    // header was scribbled while parked.
    raise(CorruptionKind::HeaderClobber, "quarantine_recycle", 0, 0, 0, 0);
    return; // Header size is untrustworthy; leak rather than corrupt.
  }
  HStats.QuarantinedBytes -= H->UserSize;
  verifyPoison(User, "quarantine_recycle");
  ++HStats.QuarantineRecycles;
  Inner->deallocate(H);
}

void HardenedAllocator::drainQuarantine() {
  while (!Quarantine.empty())
    recycleOldest();
}

void *HardenedAllocator::reallocate(void *Ptr, size_t OldSize,
                                    size_t NewSize) {
  ++Stats.ReallocCalls;
  if (!Ptr)
    return allocate(NewSize);
  if (Guard && Guard->owns(Ptr)) {
    size_t Have = Guard->usableSize(Ptr);
    void *Fresh = allocate(NewSize);
    if (!Fresh)
      return nullptr;
    std::memcpy(Fresh, Ptr, Have < NewSize ? Have : NewSize);
    deallocate(Ptr);
    return Fresh;
  }
  ObjHeader *H = headerOf(Ptr);
  switch (classify(H)) {
  case ObjState::Freed:
    raise(CorruptionKind::DoubleFree, "reallocate", 0, 0, 0, H->UserSize);
    return nullptr;
  case ObjState::Unknown:
    raise(CorruptionKind::HeaderClobber, "reallocate", 0, 0, 0, 0);
    return nullptr;
  case ObjState::Live:
    break;
  }
  (void)OldSize; // The header, not the caller, knows the true size.
  verifyRedzone(Ptr, "reallocate");
  uint64_t Have = H->UserSize;
  void *Fresh = allocate(NewSize);
  if (!Fresh)
    return nullptr; // The old object stays live (realloc contract).
  std::memcpy(Fresh, Ptr, Have < NewSize ? Have : NewSize);
  deallocate(Ptr);
  return Fresh;
}

void HardenedAllocator::freeAll() {
  // Verify every still-live object's canaries before the heap disappears:
  // freeAll is the last chance to attribute an overflow to its object.
  for (void *User : LiveObjects)
    verifyRedzone(User, "free_all");
  LiveObjects.clear();
  // Quarantined entries are re-verified, then dropped — the inner bulk
  // free reclaims their blocks along with everything else.
  while (!Quarantine.empty()) {
    void *User = Quarantine.front();
    Quarantine.pop_front();
    if (!isFreed(headerOf(User))) {
      raise(CorruptionKind::HeaderClobber, "free_all", 0, 0, 0, 0);
      continue;
    }
    verifyPoison(User, "free_all");
  }
  HStats.QuarantinedBytes = 0;
  if (Guard && Guard->liveSlots() > 0) {
    CorruptionReport R;
    unsigned Bad = Guard->freeAllLive(R);
    if (Bad > 0) {
      R.Allocator = Inner->name();
      HStats.Reports += Bad;
      HStats.ReportsByKind[static_cast<unsigned>(R.Kind)] += Bad;
      if (Handler)
        Handler(R);
      else
        fatal(R.describe());
    }
  }
  Inner->freeAll();
  noteFreeAll();
}

size_t HardenedAllocator::usableSize(const void *Ptr) const {
  if (!Ptr)
    return 0;
  if (Guard && Guard->owns(Ptr))
    return Guard->usableSize(Ptr);
  const ObjHeader *H = headerOf(const_cast<void *>(Ptr));
  if (classify(H) == ObjState::Live)
    return static_cast<size_t>(H->UserSize);
  return 0;
}

uint64_t HardenedAllocator::memoryConsumption() const {
  return Inner->memoryConsumption() + (Guard ? Guard->mappedBytes() : 0);
}

std::unique_ptr<TxAllocator>
ddm::hardenAllocator(std::unique_ptr<TxAllocator> Inner,
                     const HardeningConfig &Config) {
  if (!Config.Enabled)
    return Inner;
  return std::make_unique<HardenedAllocator>(std::move(Inner), Config);
}

HardenedAllocator *ddm::asHardened(TxAllocator *A) {
  return dynamic_cast<HardenedAllocator *>(A);
}
