//===- tests/runtime/SinkPathTest.cpp - Runtime sink-path pins ------------===//
///
/// The runtime's per-event handlers do part of their work only for an
/// attached AccessSink: the mirrored loads/stores, the instruction and
/// domain events, and the random line offset of each object touch (drawn
/// from the dedicated TouchRng stream, which is consumed only when a sink
/// is attached). These tests pin both halves of that contract:
///
///  - with a SimSink attached, a fixed-seed tiny workload produces exactly
///    the per-domain instruction, line-access, L1D-miss and L2-miss counts
///    pinned below, so any change to what the handlers mirror, or to the touch
///    offset draws, shows up as a changed literal;
///  - without a sink, the same stream leaves the allocator and the
///    runtime's metrics exactly as they are with one.
///
//===----------------------------------------------------------------------===//

#include "runtime/TransactionRuntime.h"
#include "sim/SimSink.h"

#include <gtest/gtest.h>

using namespace ddm;

namespace {

/// One pinned configuration: PHP mode (bulk free every transaction) or
/// Ruby mode (per-object sweep, 1% leak, restart every two transactions).
struct SinkPathCase {
  const char *Name;
  AllocatorKind Kind;
  bool PhpMode;
  /// Expected SimSink counters after the run, per cost domain.
  DomainEvents App;
  DomainEvents Mm;
};

constexpr uint64_t Transactions = 3;

RuntimeConfig configFor(const SinkPathCase &C) {
  RuntimeConfig Config;
  Config.Kind = C.Kind;
  Config.UseBulkFree = C.PhpMode;
  Config.Scale = 0.02;
  Config.Seed = 4242;
  if (!C.PhpMode)
    Config.RestartPeriodTx = 2;
  return Config;
}

WorkloadSpec workloadFor(const SinkPathCase &C) {
  return C.PhpMode ? phpBb() : railsApp();
}

DomainEvents expected(uint64_t Instructions, uint64_t LineAccesses,
                      uint64_t L1DMisses, uint64_t L2Misses) {
  DomainEvents E;
  E.Instructions = Instructions;
  E.LineAccesses = LineAccesses;
  E.L1DMisses = L1DMisses;
  E.L2Misses = L2Misses;
  return E;
}

/// Literal counts: any change to what the handlers mirror, or to which
/// touch offsets they draw, must show up here. At this scale the heaps fit
/// in L2, so the L1D misses are what see the touch offsets in every case.
const SinkPathCase Cases[] = {
    {"ddmalloc-php", AllocatorKind::DDmalloc, true,
     expected(2285382, 13400, 4259, 3078), expected(71543, 20378, 961, 166)},
    {"default-php", AllocatorKind::Default, true,
     expected(2285382, 14507, 3742, 3046), expected(238667, 42959, 73, 17)},
    {"region-php", AllocatorKind::Region, true,
     expected(2285382, 14194, 6014, 3032), expected(23651, 5975, 56, 2)},
    {"glibc-ruby", AllocatorKind::Glibc, false,
     expected(65192353, 36865, 9426, 5972),
     expected(654938, 118627, 1229, 45)},
};

void PrintTo(const SinkPathCase &C, std::ostream *OS) { *OS << C.Name; }

void runTransactions(TransactionRuntime &Runtime) {
  for (uint64_t I = 0; I < Transactions; ++I)
    ASSERT_EQ(Runtime.executeTransaction(), TxStatus::Ok);
}

void expectSameStats(const AllocatorStats &A, const AllocatorStats &B) {
  EXPECT_EQ(A.MallocCalls, B.MallocCalls);
  EXPECT_EQ(A.FreeCalls, B.FreeCalls);
  EXPECT_EQ(A.ReallocCalls, B.ReallocCalls);
  EXPECT_EQ(A.FreeAllCalls, B.FreeAllCalls);
  EXPECT_EQ(A.BytesRequested, B.BytesRequested);
  EXPECT_EQ(A.UsableBytesLive, B.UsableBytesLive);
  EXPECT_EQ(A.PeakUsableBytesLive, B.PeakUsableBytesLive);
}

void expectSameTrace(const TraceStats &A, const TraceStats &B) {
  EXPECT_EQ(A.Mallocs, B.Mallocs);
  EXPECT_EQ(A.Frees, B.Frees);
  EXPECT_EQ(A.Reallocs, B.Reallocs);
  EXPECT_EQ(A.Callocs, B.Callocs);
  EXPECT_EQ(A.AlignedAllocs, B.AlignedAllocs);
  EXPECT_EQ(A.AllocatedBytes, B.AllocatedBytes);
  EXPECT_EQ(A.ObjectTouches, B.ObjectTouches);
  EXPECT_EQ(A.StateTouches, B.StateTouches);
  EXPECT_EQ(A.WorkInstructions, B.WorkInstructions);
}

void expectSameMetrics(const RuntimeMetrics &A, const RuntimeMetrics &B) {
  EXPECT_EQ(A.Transactions, B.Transactions);
  EXPECT_EQ(A.Restarts, B.Restarts);
  expectSameTrace(A.TotalTrace, B.TotalTrace);
  EXPECT_EQ(A.ConsumptionBytes.count(), B.ConsumptionBytes.count());
  EXPECT_EQ(A.ConsumptionBytes.mean(), B.ConsumptionBytes.mean());
  EXPECT_EQ(A.ConsumptionBytes.min(), B.ConsumptionBytes.min());
  EXPECT_EQ(A.ConsumptionBytes.max(), B.ConsumptionBytes.max());
  EXPECT_EQ(A.RestartInstructions, B.RestartInstructions);
  EXPECT_EQ(A.OomAborts, B.OomAborts);
  EXPECT_EQ(A.CorruptionAborts, B.CorruptionAborts);
}

class SinkPathTest : public testing::TestWithParam<SinkPathCase> {};

} // namespace

TEST_P(SinkPathTest, SimSinkCountsArePinned) {
  const SinkPathCase &C = GetParam();
  SimSink Sink(xeonLike(), 1);
  {
    TransactionRuntime Runtime(workloadFor(C), configFor(C), &Sink);
    runTransactions(Runtime);
  }
  Sink.flush();
  const DomainEvents &App = Sink.events(CostDomain::Application);
  const DomainEvents &Mm = Sink.events(CostDomain::MemoryManagement);
  EXPECT_EQ(App.Instructions, C.App.Instructions);
  EXPECT_EQ(App.LineAccesses, C.App.LineAccesses);
  EXPECT_EQ(App.L1DMisses, C.App.L1DMisses);
  EXPECT_EQ(App.L2Misses, C.App.L2Misses);
  EXPECT_EQ(Mm.Instructions, C.Mm.Instructions);
  EXPECT_EQ(Mm.LineAccesses, C.Mm.LineAccesses);
  EXPECT_EQ(Mm.L1DMisses, C.Mm.L1DMisses);
  EXPECT_EQ(Mm.L2Misses, C.Mm.L2Misses);
}

TEST_P(SinkPathTest, SinkDoesNotChangeTheRun) {
  const SinkPathCase &C = GetParam();
  SimSink Sink(xeonLike(), 1);
  TransactionRuntime WithSink(workloadFor(C), configFor(C), &Sink);
  TransactionRuntime WithoutSink(workloadFor(C), configFor(C));
  runTransactions(WithSink);
  runTransactions(WithoutSink);
  expectSameStats(WithSink.allocator().stats(),
                  WithoutSink.allocator().stats());
  expectSameMetrics(WithSink.metrics(), WithoutSink.metrics());
}

INSTANTIATE_TEST_SUITE_P(Zoo, SinkPathTest, testing::ValuesIn(Cases),
                         [](const testing::TestParamInfo<SinkPathCase> &I) {
                           std::string Name = I.param.Name;
                           for (char &Ch : Name)
                             if (Ch == '-')
                               Ch = '_';
                           return Name;
                         });
