//===- perfbench/HostSpeed.h - Host speed reference kernel ------*- C++ -*-===//
///
/// \file
/// The benchmark's host shares its cores with other tenants, and its speed
/// drifts by a third or more within minutes: eight 25 s replay-ruby runs of
/// the same code gave ddmalloc 220-358 tx/s. A fixed kernel run between the
/// timed passes slows down with the replays (the same eight runs gave it
/// 17-31 M ops/s, and ddmalloc over the kernel's speed stayed within 10%).
/// So the benchmark runs the kernel between its timed passes and reports
/// host-clock figures at the reference speed: a time is multiplied by the
/// speed factor of the passes it was measured among, a rate divided by it.
///
/// The kernel uses only the C library (malloc, free, memset) and this file,
/// so no change to the repository's modules changes what it measures.
///
//===----------------------------------------------------------------------===//

#ifndef DDM_PERFBENCH_HOSTSPEED_H
#define DDM_PERFBENCH_HOSTSPEED_H

#include <cstddef>

namespace perfbench {

/// Operations of one reference pass, and the seconds it takes at the
/// reference speed (25 M ops/s, about the middle of what the reference
/// host gave).
constexpr unsigned RefOps = 2000000;
constexpr double RefNominalSec = 0.080;

/// Runs the reference kernel once: RefOps random malloc-and-fill or
/// read-and-free operations on 16384 slots of 16-496 bytes, with a fixed
/// seed. Returns its host seconds.
double referencePass();

/// The reference passes of one measurement.
class HostSpeed {
public:
  /// Runs one reference pass and returns its speed factor: how many times
  /// faster than the reference speed the host ran it.
  double sample();
  /// The speed factor over every pass so far (total over total); 1 before
  /// the first.
  double factor() const;
  size_t samples() const { return N; }

private:
  double Sec = 0;
  size_t N = 0;
};

} // namespace perfbench

#endif // DDM_PERFBENCH_HOSTSPEED_H
