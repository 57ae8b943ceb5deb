//===- tests/trace/ReplayParity.h - Replay entry-point parity ---*- C++ -*-===//
///
/// The replayer's validation loop is instantiated twice: for TxExecutor&
/// (replayTransactionInto, virtual dispatch per event) and for the final
/// TransactionRuntime& (replayTransaction, inline handlers). Both must
/// accept and reject exactly the same traces with exactly the same
/// diagnostic. expectReplayParity drives one file through a fresh runtime
/// both ways, with both readers, and compares the outcomes.
///
//===----------------------------------------------------------------------===//

#ifndef DDM_TESTS_TRACE_REPLAYPARITY_H
#define DDM_TESTS_TRACE_REPLAYPARITY_H

#include "runtime/TransactionRuntime.h"
#include "trace/TraceReplayer.h"

#include <gtest/gtest.h>

#include <string>

namespace ddm {

/// Everything a replay run reports.
struct ReplayOutcome {
  TraceReplayer::Step Step = TraceReplayer::Step::Error;
  TraceStatus Status;
  uint64_t Transactions = 0;
  uint64_t Events = 0;
  uint64_t RuntimeTransactions = 0;
  AllocatorStats Heap;
};

/// Replays \p Path to its first non-Tx step into a fresh runtime whose
/// workload declares \p StateBytes of interpreter state (the limit both
/// entry points then validate state touches against). \p Concrete picks
/// replayTransaction; otherwise the runtime is driven as a TxExecutor&
/// through replayTransactionInto and completed by hand, which is what
/// replayTransaction does.
inline ReplayOutcome replayThroughRuntime(const std::string &Path,
                                          uint64_t StateBytes,
                                          TraceReaderKind Kind,
                                          bool Concrete) {
  // The state area is reserved at construction and may not be empty;
  // setWorkload then narrows the declared size (to zero, if asked).
  WorkloadSpec Host = phpBb();
  if (Host.AppStateBytes < StateBytes)
    Host.AppStateBytes = StateBytes;
  TransactionRuntime Runtime(Host, RuntimeConfig());
  Host.AppStateBytes = StateBytes;
  Runtime.setWorkload(Host);

  ReplayOutcome Out;
  TraceReplayer Replayer;
  Out.Status = Replayer.open(Path, Kind);
  if (!Out.Status.ok())
    return Out;
  TxExecutor &Executor = Runtime;
  do {
    if (Concrete) {
      Out.Step = Replayer.replayTransaction(Runtime);
    } else {
      TraceStats Stats;
      Out.Step = Replayer.replayTransactionInto(Executor, Stats, StateBytes);
      if (Out.Step == TraceReplayer::Step::Tx)
        Runtime.completeTransaction(Stats);
    }
  } while (Out.Step == TraceReplayer::Step::Tx);
  Out.Status = Replayer.status();
  Out.Transactions = Replayer.transactionsReplayed();
  Out.Events = Replayer.eventsReplayed();
  Out.RuntimeTransactions = Runtime.metrics().Transactions;
  Out.Heap = Runtime.allocator().stats();
  return Out;
}

/// Replays \p Path through both entry points with both readers and
/// expects identical steps, diagnostics (message, byte offset, event
/// index), replay counts and runtime effects.
inline void expectReplayParity(const std::string &Path, uint64_t StateBytes) {
  for (TraceReaderKind Kind :
       {TraceReaderKind::Streaming, TraceReaderKind::Mapped}) {
    SCOPED_TRACE(std::string(traceReaderKindName(Kind)) + " reader, " + Path);
    ReplayOutcome Virtual = replayThroughRuntime(Path, StateBytes, Kind, false);
    ReplayOutcome Inline = replayThroughRuntime(Path, StateBytes, Kind, true);
    EXPECT_EQ(Virtual.Step, Inline.Step);
    EXPECT_EQ(Virtual.Status.Message, Inline.Status.Message);
    EXPECT_EQ(Virtual.Status.ByteOffset, Inline.Status.ByteOffset);
    EXPECT_EQ(Virtual.Status.EventIndex, Inline.Status.EventIndex);
    EXPECT_EQ(Virtual.Transactions, Inline.Transactions);
    EXPECT_EQ(Virtual.Events, Inline.Events);
    EXPECT_EQ(Virtual.RuntimeTransactions, Inline.RuntimeTransactions);
    EXPECT_EQ(Virtual.Heap.MallocCalls, Inline.Heap.MallocCalls);
    EXPECT_EQ(Virtual.Heap.FreeCalls, Inline.Heap.FreeCalls);
    EXPECT_EQ(Virtual.Heap.ReallocCalls, Inline.Heap.ReallocCalls);
    EXPECT_EQ(Virtual.Heap.FreeAllCalls, Inline.Heap.FreeAllCalls);
    EXPECT_EQ(Virtual.Heap.BytesRequested, Inline.Heap.BytesRequested);
  }
}

} // namespace ddm

#endif // DDM_TESTS_TRACE_REPLAYPARITY_H
