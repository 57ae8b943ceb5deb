//===- tests/hardening/PatternTest.cpp - Word-wise canary patterns --------===//
///
/// The canaries (red zone, quarantine poison, guarded-page slack) are
/// filled and verified eight bytes at a time. This pins them against a
/// byte-wise reference kept here — byte I of a span is byte (I % 8) of
/// splitmix64(pointer ^ seed [^ freed salt]) — over every red-zone length
/// 0..24, user sizes 0..72 (unaligned red-zone starts), and poison caps
/// around the word boundaries: the filled bytes, the bytes left alone, and
/// for every single-byte flip at every offset exactly one report with the
/// reference offset, expected and found bytes, and no second report once
/// the span was repaired.
///
//===----------------------------------------------------------------------===//

#include "core/AllocatorFactory.h"
#include "hardening/GuardedPageAllocator.h"
#include "hardening/Hardening.h"
#include "hardening/Pattern.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string_view>
#include <vector>

using namespace ddm;

namespace {

/// The byte-wise reference: one full hash per byte, as the patterns were
/// first defined.
uint64_t refMix(uint64_t X) {
  X += 0x9e3779b97f4a7c15ull;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ull;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebull;
  return X ^ (X >> 31);
}

constexpr uint64_t RefFreedSalt = 0xdeadf4eedull;
constexpr uint64_t Seed = HardeningConfig().Seed;

uint8_t refByte(const void *User, uint64_t Salt, size_t I) {
  return static_cast<uint8_t>(
      refMix(reinterpret_cast<uintptr_t>(User) ^ Salt) >> ((I % 8) * 8));
}

/// Flips of a single byte: the lowest bit, the highest bit, every bit.
constexpr uint8_t FlipMasks[] = {0x01, 0x80, 0xff};

/// A hardened DDmalloc heap (per-object free and bulk free) recording its
/// reports.
struct Heap {
  std::unique_ptr<TxAllocator> Alloc;
  HardenedAllocator *H = nullptr;
  std::vector<CorruptionReport> Reports;

  explicit Heap(uint32_t RedzoneBytes, uint32_t PoisonCapBytes = 64) {
    AllocatorOptions Options;
    Options.Hardening.Enabled = true;
    Options.Hardening.RedzoneBytes = RedzoneBytes;
    Options.Hardening.PoisonCapBytes = PoisonCapBytes;
    Alloc = createAllocator(AllocatorKind::DDmalloc, Options);
    H = asHardened(Alloc.get());
    H->setReportHandler(
        [this](const CorruptionReport &R) { Reports.push_back(R); });
  }
};

void expectReport(const CorruptionReport &R, CorruptionKind Kind,
                  std::string_view Site, uint64_t Offset, uint8_t Expected,
                  uint8_t Found, uint64_t UserSize) {
  EXPECT_EQ(R.Kind, Kind);
  EXPECT_EQ(R.Site, Site);
  EXPECT_EQ(R.ByteOffset, Offset);
  EXPECT_EQ(R.Expected, Expected);
  EXPECT_EQ(R.Found, Found);
  EXPECT_EQ(R.UserSize, UserSize);
}

TEST(PatternTest, HelpersMatchTheByteReferenceAndStayInTheirSpan) {
  const void *Owner = reinterpret_cast<const void *>(0x7f12345678a8ull);
  uint64_t Word = patternWord(Owner, Seed);
  EXPECT_EQ(Word, refMix(reinterpret_cast<uintptr_t>(Owner) ^ Seed));
  for (size_t Start = 0; Start < 8; ++Start)
    for (size_t Len = 0; Len <= 80; ++Len) {
      SCOPED_TRACE(testing::Message() << "start=" << Start << " len=" << Len);
      uint8_t Buf[96];
      std::memset(Buf, 0xa5, sizeof(Buf));
      uint8_t *Span = Buf + Start;
      fillPattern(Span, Len, Word);
      for (size_t I = 0; I < sizeof(Buf); ++I) {
        bool Inside = I >= Start && I < Start + Len;
        ASSERT_EQ(Buf[I], Inside ? refByte(Owner, Seed, I - Start) : 0xa5)
            << "byte " << I;
      }
      ASSERT_EQ(patternMismatch(Span, Len, Word), Len);
      for (size_t Off = 0; Off < Len; ++Off)
        for (uint8_t Mask : FlipMasks) {
          Span[Off] ^= Mask;
          ASSERT_EQ(patternMismatch(Span, Len, Word), Off);
          ASSERT_EQ(patternByte(Word, Off), refByte(Owner, Seed, Off));
          Span[Off] ^= Mask;
        }
    }
}

TEST(PatternTest, RedzoneFillAndEveryFlipMatchTheReference) {
  for (uint32_t RZ = 0; RZ <= 24; ++RZ) {
    Heap Hp(RZ);
    for (uint64_t Size = 0; Size <= 72; ++Size) {
      SCOPED_TRACE(testing::Message() << "redzone=" << RZ << " size=" << Size);
      Hp.Reports.clear();
      auto *P = static_cast<uint8_t *>(Hp.Alloc->allocate(Size));
      ASSERT_NE(P, nullptr);
      for (uint32_t I = 0; I < RZ; ++I)
        ASSERT_EQ(P[Size + I], refByte(P, Seed, I)) << "byte " << I;
      Hp.Alloc->deallocate(P);
      Hp.H->drainQuarantine();
      ASSERT_TRUE(Hp.Reports.empty());

      for (uint32_t Off = 0; Off < RZ; ++Off)
        // A free; a realloc, whose inner free re-verifies the repaired red
        // zone; the bulk free of a live object. The drain and freeAll that
        // follow each must find nothing more.
        for (std::string_view Site : {"deallocate", "reallocate", "free_all"})
          for (uint8_t Mask : FlipMasks) {
            Hp.Reports.clear();
            auto *Q = static_cast<uint8_t *>(Hp.Alloc->allocate(Size));
            ASSERT_NE(Q, nullptr);
            uint8_t Want = refByte(Q, Seed, Off);
            Q[Size + Off] ^= Mask;
            if (Site == "deallocate")
              Hp.Alloc->deallocate(Q);
            else if (Site == "reallocate")
              Hp.Alloc->deallocate(Hp.Alloc->reallocate(Q, Size, Size + 8));
            Hp.H->drainQuarantine();
            Hp.Alloc->freeAll();
            ASSERT_EQ(Hp.Reports.size(), 1u) << Site << " offset " << Off;
            expectReport(Hp.Reports[0], CorruptionKind::RedzoneOverflow, Site,
                         Size + Off, Want, static_cast<uint8_t>(Want ^ Mask),
                         Size);
          }
    }
  }
}

TEST(PatternTest, PoisonFillAndEveryFlipMatchTheReference) {
  for (uint32_t Cap : {0u, 1u, 7u, 8u, 9u, 64u, 65u}) {
    Heap Hp(16, Cap);
    for (uint64_t Size = 0; Size <= 72; ++Size) {
      SCOPED_TRACE(testing::Message() << "cap=" << Cap << " size=" << Size);
      uint64_t Span = Size < Cap ? Size : Cap;
      Hp.Reports.clear();
      auto *P = static_cast<uint8_t *>(Hp.Alloc->allocate(Size));
      ASSERT_NE(P, nullptr);
      std::memset(P, 0x5c, Size);
      Hp.Alloc->deallocate(P);
      // Quarantined: the first Span bytes carry the poison, the rest of
      // the object is left as the program wrote it.
      for (uint64_t I = 0; I < Size; ++I)
        ASSERT_EQ(P[I], I < Span ? refByte(P, Seed ^ RefFreedSalt, I) : 0x5c)
            << "byte " << I;
      Hp.H->drainQuarantine();
      ASSERT_TRUE(Hp.Reports.empty());

      for (uint64_t Off = 0; Off < Span; ++Off)
        for (std::string_view Site : {"quarantine_recycle", "free_all"})
          for (uint8_t Mask : FlipMasks) {
            Hp.Reports.clear();
            auto *Q = static_cast<uint8_t *>(Hp.Alloc->allocate(Size));
            ASSERT_NE(Q, nullptr);
            Hp.Alloc->deallocate(Q);
            uint8_t Want = refByte(Q, Seed ^ RefFreedSalt, Off);
            Q[Off] ^= Mask;
            if (Site == "quarantine_recycle")
              Hp.H->drainQuarantine();
            Hp.Alloc->freeAll();
            Hp.H->drainQuarantine();
            ASSERT_EQ(Hp.Reports.size(), 1u) << Site << " offset " << Off;
            expectReport(Hp.Reports[0], CorruptionKind::UseAfterFree, Site,
                         Off, Want, static_cast<uint8_t>(Want ^ Mask), Size);
          }
    }
  }
}

TEST(PatternTest, GuardSlackFillAndEveryFlipMatchTheReference) {
  GuardedPageAllocator Pool(4, Seed);
  ASSERT_TRUE(Pool.available());
  for (uint64_t Size = 0; Size <= 72; ++Size) {
    SCOPED_TRACE(testing::Message() << "size=" << Size);
    // Sampled objects are right-aligned on a 16-byte rounding.
    uint64_t Rounded = ((Size ? Size : 1) + 15) & ~uint64_t(15);
    auto *P = static_cast<uint8_t *>(Pool.allocate(Size));
    ASSERT_NE(P, nullptr);
    for (uint64_t I = 0; I < Rounded - Size; ++I)
      ASSERT_EQ(P[Size + I], refByte(P, Seed, I)) << "byte " << I;
    CorruptionReport Clean;
    ASSERT_TRUE(Pool.deallocate(P, Clean));

    for (uint64_t Off = 0; Off < Rounded - Size; ++Off)
      for (uint8_t Mask : FlipMasks) {
        auto *Q = static_cast<uint8_t *>(Pool.allocate(Size));
        ASSERT_NE(Q, nullptr);
        uint8_t Want = refByte(Q, Seed, Off);
        Q[Size + Off] ^= Mask;
        CorruptionReport R;
        ASSERT_FALSE(Pool.deallocate(Q, R)) << "offset " << Off;
        expectReport(R, CorruptionKind::GuardViolation, "guard_free",
                     Size + Off, Want, static_cast<uint8_t>(Want ^ Mask),
                     Size);
        // The slot was freed with its report; nothing is left to report.
        CorruptionReport Later;
        EXPECT_EQ(Pool.freeAllLive(Later), 0u);
      }
  }
}

} // namespace
