//===- perfbench/HostSpeed.cpp - Host speed reference kernel --------------===//

#include "HostSpeed.h"

#include "Tracer.h"

#include <cstdint>
#include <cstdlib>
#include <cstring>

using namespace perfbench;

namespace {
volatile uint64_t Sink;
} // namespace

__attribute__((noinline)) double perfbench::referencePass() {
  constexpr unsigned Slots = 16384;
  static unsigned char *Live[Slots];
  uint64_t X = 0x9E3779B97F4A7C15ull;
  uint64_t Sum = 0;
  Clock::time_point Start = Clock::now();
  for (unsigned I = 0; I < RefOps; ++I) {
    X ^= X << 13;
    X ^= X >> 7;
    X ^= X << 17;
    unsigned char *&P = Live[X % Slots];
    if (P) {
      Sum += P[8];
      std::free(P);
      P = nullptr;
    } else {
      size_t Size = 16 + ((X >> 32) % 61) * 8;
      P = static_cast<unsigned char *>(std::malloc(Size));
      std::memset(P, static_cast<int>(I), Size);
    }
  }
  for (unsigned char *&P : Live) {
    std::free(P);
    P = nullptr;
  }
  Sink = Sum;
  return secondsSince(Start);
}

double HostSpeed::sample() {
  double S = referencePass();
  Sec += S;
  ++N;
  return RefNominalSec / S;
}

double HostSpeed::factor() const {
  return N ? RefNominalSec * static_cast<double>(N) / Sec : 1.0;
}
