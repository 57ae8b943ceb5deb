//===- tests/runtime/TransactionRuntimeTest.cpp - Runtime engine tests ----===//

#include "runtime/TransactionRuntime.h"
#include "sim/SimSink.h"

#include <gtest/gtest.h>

using namespace ddm;

namespace {

WorkloadSpec tinyWorkload() {
  WorkloadSpec W = phpBb();
  return W;
}

RuntimeConfig phpConfig(AllocatorKind Kind) {
  RuntimeConfig Config;
  Config.Kind = Kind;
  Config.UseBulkFree = true;
  Config.Scale = 0.05;
  return Config;
}

} // namespace

TEST(TransactionRuntimeTest, ExecutesTransactionsAndCounts) {
  TransactionRuntime Runtime(tinyWorkload(), phpConfig(AllocatorKind::DDmalloc));
  Runtime.executeTransaction();
  Runtime.executeTransaction();
  const RuntimeMetrics &M = Runtime.metrics();
  EXPECT_EQ(M.Transactions, 2u);
  EXPECT_GT(M.TotalTrace.Mallocs, 0u);
  EXPECT_GT(M.TotalTrace.WorkInstructions, 0u);
  EXPECT_EQ(M.ConsumptionBytes.count(), 2u);
}

TEST(TransactionRuntimeTest, PhpModeBulkFreesEveryTransaction) {
  TransactionRuntime Runtime(tinyWorkload(), phpConfig(AllocatorKind::DDmalloc));
  for (int I = 0; I < 3; ++I)
    Runtime.executeTransaction();
  const AllocatorStats &S = Runtime.allocator().stats();
  EXPECT_EQ(S.FreeAllCalls, 3u);
  EXPECT_EQ(S.UsableBytesLive, 0u);
}

TEST(TransactionRuntimeTest, PhpModeWorksWithEveryBulkFreeAllocator) {
  for (AllocatorKind Kind :
       {AllocatorKind::Default, AllocatorKind::Region, AllocatorKind::Obstack,
        AllocatorKind::DDmalloc}) {
    TransactionRuntime Runtime(tinyWorkload(), phpConfig(Kind));
    Runtime.executeTransaction();
    EXPECT_EQ(Runtime.metrics().Transactions, 1u) << allocatorKindName(Kind);
  }
}

TEST(TransactionRuntimeTest, RubyModeSweepsWithPerObjectFree) {
  RuntimeConfig Config = phpConfig(AllocatorKind::Glibc);
  Config.UseBulkFree = false;
  Config.LeakFraction = 0.0;
  TransactionRuntime Runtime(tinyWorkload(), Config);
  Runtime.executeTransaction();
  const AllocatorStats &S = Runtime.allocator().stats();
  EXPECT_EQ(S.FreeAllCalls, 0u);
  // Everything was freed per-object (trace frees + sweep).
  EXPECT_EQ(S.FreeCalls, S.MallocCalls);
  EXPECT_EQ(S.UsableBytesLive, 0u);
}

TEST(TransactionRuntimeTest, RubyModeLeaksConfiguredFraction) {
  RuntimeConfig Config = phpConfig(AllocatorKind::Glibc);
  Config.UseBulkFree = false;
  Config.LeakFraction = 0.5; // exaggerated for the test
  Config.Scale = 0.1;
  TransactionRuntime Runtime(tinyWorkload(), Config);
  Runtime.executeTransaction();
  const AllocatorStats &S = Runtime.allocator().stats();
  EXPECT_LT(S.FreeCalls, S.MallocCalls);
  EXPECT_GT(S.UsableBytesLive, 0u);
}

TEST(TransactionRuntimeTest, RubyModeRestartsOnSchedule) {
  RuntimeConfig Config = phpConfig(AllocatorKind::TCMalloc);
  Config.UseBulkFree = false;
  Config.RestartPeriodTx = 2;
  TransactionRuntime Runtime(tinyWorkload(), Config);
  for (int I = 0; I < 5; ++I)
    Runtime.executeTransaction();
  EXPECT_EQ(Runtime.metrics().Restarts, 2u);
  EXPECT_EQ(Runtime.metrics().RestartInstructions,
            2u * Config.RestartCostInstructions);
  // A fresh allocator after the restart: its stats restarted too.
  EXPECT_LT(Runtime.allocator().stats().MallocCalls,
            Runtime.metrics().TotalTrace.Mallocs);
}

TEST(TransactionRuntimeTest, SinkSeesBothDomains) {
  Platform P = xeonLike();
  SimSink Sink(P, 1);
  TransactionRuntime Runtime(tinyWorkload(), phpConfig(AllocatorKind::Default),
                             &Sink);
  Runtime.executeTransaction();
  const DomainEvents &App = Sink.events(CostDomain::Application);
  const DomainEvents &Mm = Sink.events(CostDomain::MemoryManagement);
  EXPECT_GT(App.Instructions, 0u);
  EXPECT_GT(Mm.Instructions, 0u);
  EXPECT_GT(App.LineAccesses, 0u);
  EXPECT_GT(Mm.LineAccesses, 0u);
  // Application work dominates a web transaction.
  EXPECT_GT(App.Instructions, Mm.Instructions);
}

TEST(TransactionRuntimeTest, DeterministicAcrossRuns) {
  auto Run = [] {
    RuntimeConfig Config = phpConfig(AllocatorKind::DDmalloc);
    Config.Seed = 99;
    TransactionRuntime Runtime(tinyWorkload(), Config);
    Runtime.executeTransaction();
    Runtime.executeTransaction();
    return Runtime.metrics().TotalTrace.AllocatedBytes;
  };
  EXPECT_EQ(Run(), Run());
}

TEST(TransactionRuntimeTest, AllocatorCodeFootprintsOrdered) {
  // The L1I model's premise: defragmenting allocators carry more code.
  auto Footprint = [](AllocatorKind Kind) {
    RuntimeConfig Config;
    Config.Kind = Kind;
    Config.Scale = 0.01;
    Config.UseBulkFree = createAllocator(Kind)->supportsBulkFree();
    TransactionRuntime Runtime(phpBb(), Config);
    return Runtime.allocatorCodeFootprintBytes();
  };
  EXPECT_LT(Footprint(AllocatorKind::Region),
            Footprint(AllocatorKind::DDmalloc));
  EXPECT_LT(Footprint(AllocatorKind::DDmalloc),
            Footprint(AllocatorKind::Default));
}

#ifndef NDEBUG
TEST(TransactionRuntimeDeathTest, StateTouchNearTheTopOfTheAddressSpace) {
  // Offset + 64 wraps past zero for these offsets; the range check must
  // not (a wrapped check would let the access through).
  TransactionRuntime Runtime(tinyWorkload(), phpConfig(AllocatorKind::DDmalloc));
  EXPECT_DEATH(Runtime.onStateTouch(~uint64_t(0) - 8, false),
               "state touch out of range");
  EXPECT_DEATH(Runtime.onStateTouch(~uint64_t(0) - 63, true),
               "state touch out of range");
}

TEST(TransactionRuntimeDeathTest, StateTouchPastTheEndOfTheStateArea) {
  TransactionRuntime Runtime(tinyWorkload(), phpConfig(AllocatorKind::DDmalloc));
  uint64_t Size = tinyWorkload().AppStateBytes;
  Runtime.onStateTouch(Size - 64, true); // the last whole line is fine
  EXPECT_DEATH(Runtime.onStateTouch(Size - 63, true),
               "state touch out of range");
}
#endif
