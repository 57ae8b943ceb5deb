//===- hardening/Pattern.h - Canary and poison byte patterns ---*- C++ -*-===//
///
/// \file
/// The byte pattern behind every canary of the hardening layer: red zones,
/// quarantine poison, and guarded-page slack. A span's pattern is one
/// 64-bit word derived from (pointer, seed, salt); byte I of the span is
/// byte (I % 8) of that word, least significant first. The word is
/// computed once per object and the span is filled and compared eight
/// bytes at a time, with a byte tail; only a mismatch pays for locating
/// the first bad byte.
///
//===----------------------------------------------------------------------===//

#ifndef DDM_HARDENING_PATTERN_H
#define DDM_HARDENING_PATTERN_H

#include "support/Random.h"

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace ddm {

static_assert(std::endian::native == std::endian::little,
              "word-wise pattern fill assumes little-endian byte order");

/// The pattern word of the span owned by \p User under \p Salt (the seed,
/// possibly xor-ed with a state salt).
inline uint64_t patternWord(const void *User, uint64_t Salt) {
  return splitmix64(reinterpret_cast<uintptr_t>(User) ^ Salt);
}

/// Byte \p I of the span whose pattern word is \p Word.
inline uint8_t patternByte(uint64_t Word, size_t I) {
  return static_cast<uint8_t>(Word >> ((I % 8) * 8));
}

/// Writes \p Word's pattern over [Dst, Dst + Len).
inline void fillPattern(void *Dst, size_t Len, uint64_t Word) {
  auto *P = static_cast<uint8_t *>(Dst);
  size_t I = 0;
  for (; I + 8 <= Len; I += 8)
    std::memcpy(P + I, &Word, 8);
  for (; I < Len; ++I)
    P[I] = patternByte(Word, I);
}

/// Offset of the first byte of [Src, Src + Len) that differs from
/// \p Word's pattern, or \p Len if the span is intact.
inline size_t patternMismatch(const void *Src, size_t Len, uint64_t Word) {
  const auto *P = static_cast<const uint8_t *>(Src);
  size_t I = 0;
  for (; I + 8 <= Len; I += 8) {
    uint64_t Got;
    std::memcpy(&Got, P + I, 8);
    if (Got != Word)
      return I + static_cast<size_t>(std::countr_zero(Got ^ Word) >> 3);
  }
  for (; I < Len; ++I)
    if (P[I] != patternByte(Word, I))
      return I;
  return Len;
}

} // namespace ddm

#endif // DDM_HARDENING_PATTERN_H
