//===- trace/TraceReplayer.cpp - Deterministic trace replay ---------------===//

#include "trace/TraceReplayer.h"

#include "runtime/TransactionRuntime.h"

using namespace ddm;

TraceStatus TraceReplayer::fail(std::string Message) {
  // The offending event is the one just consumed: index eventsReplayed()-1.
  Status = TraceStatus::error(std::move(Message),
                              Input ? Input->byteOffset() : 0,
                              EventsDone ? EventsDone - 1 : 0);
  return Status;
}

TraceStatus TraceReplayer::open(const std::string &Path, TraceReaderKind Kind) {
  Input = openTraceInput(Path, Kind, Status);
  Span = TraceEventSpan();
  SpanPos = 0;
  EventsDone = 0;
  Objects.clear();
  Total = TraceStats();
  Transactions = 0;
  EventsInTx = 0;
  return Status;
}

const TraceStatus &TraceReplayer::status() const {
  if (!Status.ok() || !Input)
    return Status;
  return Input->status();
}

TraceInput::Next TraceReplayer::nextEvent(const TraceEvent *&E) {
  while (SpanPos >= Span.Size) {
    SpanPos = 0;
    TraceInput::Next R = Input->nextBatch(Span);
    if (R != TraceInput::Next::Event)
      return R;
  }
  E = &Span.Data[SpanPos++];
  ++EventsDone;
  return TraceInput::Next::Event;
}

template <typename ExecutorT>
TraceReplayer::Step TraceReplayer::replayInto(ExecutorT &Executor,
                                              TraceStats &Stats,
                                              uint64_t StateBytesLimit) {
  if (!status().ok())
    return Step::Error;

  const TraceEvent *EP = nullptr;
  while (true) {
    switch (nextEvent(EP)) {
    case TraceInput::Next::End:
      if (EventsInTx != 0) {
        fail("trace ends in the middle of a transaction (" +
             std::to_string(EventsInTx) + " events after the last boundary)");
        return Step::Error;
      }
      return Step::End;
    case TraceInput::Next::Error:
      return Step::Error;
    case TraceInput::Next::Event:
      break;
    }

    const TraceEvent &E = *EP;
    // Diagnostics only: built on the failure paths, never per event.
    auto Id = [&E] { return std::to_string(E.Id); };
    switch (E.Op) {
    case TraceOp::Alloc:
    case TraceOp::Calloc:
    case TraceOp::AllocAligned: {
      // Ids are dense per transaction, so no producer allocates an id past
      // the events before it; refusing one keeps the table bounded.
      if (E.Id > EventsInTx) {
        fail("allocation id " + Id() + " is beyond the " +
             std::to_string(EventsInTx) + " events of this transaction");
        return Step::Error;
      }
      if (E.Id >= Objects.size())
        Objects.resize(size_t(E.Id) + 1);
      ObjectSlot &Slot = Objects[E.Id];
      if (Slot.Live) {
        fail("allocation reuses live object id " + Id());
        return Step::Error;
      }
      Slot = {E.Size, true};
      if (E.Op == TraceOp::AllocAligned &&
          (E.Alignment == 0 || (E.Alignment & (E.Alignment - 1)) != 0)) {
        fail("aligned allocation of object id " + Id() +
             " requests non-power-of-two alignment " +
             std::to_string(E.Alignment));
        return Step::Error;
      }
      ++EventsInTx;
      ++Stats.Mallocs;
      Stats.AllocatedBytes += E.Size;
      if (E.Op == TraceOp::Calloc) {
        ++Stats.Callocs;
        Executor.onCalloc(E.Id, E.Size);
      } else if (E.Op == TraceOp::AllocAligned) {
        ++Stats.AlignedAllocs;
        Executor.onAllocAligned(E.Id, E.Size, E.Alignment);
      } else {
        Executor.onAlloc(E.Id, E.Size);
      }
      if (Executor.txAborted()) {
        fail("allocation of " + std::to_string(E.Size) + " bytes for object " +
             Id() + " failed: the executor's allocator exhausted its heap");
        return Step::Error;
      }
      break;
    }
    case TraceOp::Free: {
      ObjectSlot *Slot = liveSlot(E.Id);
      if (!Slot) {
        fail("free of unknown or already-freed object id " + Id());
        return Step::Error;
      }
      Slot->Live = false;
      ++EventsInTx;
      ++Stats.Frees;
      Executor.onFree(E.Id);
      break;
    }
    case TraceOp::Realloc: {
      ObjectSlot *Slot = liveSlot(E.Id);
      if (!Slot) {
        fail("realloc of unknown or already-freed object id " + Id());
        return Step::Error;
      }
      if (Slot->Size != E.OldSize) {
        fail("realloc old-size mismatch on object id " + Id() +
             ": trace says " + std::to_string(E.OldSize) + ", object is " +
             std::to_string(Slot->Size) + " bytes");
        return Step::Error;
      }
      Slot->Size = E.Size;
      ++EventsInTx;
      // AllocatedBytes counts malloc'd bytes only (Table 3's mean
      // allocation size definition), as in the generator's TraceStats.
      ++Stats.Reallocs;
      Executor.onRealloc(E.Id, E.OldSize, E.Size);
      if (Executor.txAborted()) {
        fail("realloc of object " + Id() + " to " + std::to_string(E.Size) +
             " bytes failed: the executor's allocator exhausted its heap");
        return Step::Error;
      }
      break;
    }
    case TraceOp::Touch:
      if (!liveSlot(E.Id)) {
        fail("touch of unknown or already-freed object id " + Id());
        return Step::Error;
      }
      ++EventsInTx;
      ++Stats.ObjectTouches;
      Executor.onTouch(E.Id, E.IsWrite);
      break;
    case TraceOp::Work:
      ++EventsInTx;
      Stats.WorkInstructions += E.Size;
      Executor.onWork(E.Size);
      break;
    case TraceOp::StateTouch:
      // The touch spans [offset, offset+64); compare without computing
      // offset+64, which a corrupt offset near 2^64 would wrap past the
      // limit and into the runtime's unchecked state access.
      if (StateBytesLimit != StateLimitUnknown &&
          (E.Size > StateBytesLimit || StateBytesLimit - E.Size < 64)) {
        fail("state touch at offset " + std::to_string(E.Size) +
             " is outside the workload's " + std::to_string(StateBytesLimit) +
             "-byte state area");
        return Step::Error;
      }
      ++EventsInTx;
      ++Stats.StateTouches;
      Executor.onStateTouch(E.Size, E.IsWrite);
      break;
    case TraceOp::EndTx:
      // Object ids restart at zero next transaction; whatever is still
      // live belongs to the runtime's end-of-transaction cleanup.
      Objects.clear();
      EventsInTx = 0;
      ++Transactions;
      return Step::Tx;
    }
  }
}

TraceReplayer::Step
TraceReplayer::replayTransactionInto(TxExecutor &Executor, TraceStats &Stats,
                                     uint64_t StateBytesLimit) {
  return replayInto(Executor, Stats, StateBytesLimit);
}

TraceReplayer::Step TraceReplayer::replayTransaction(TransactionRuntime &RT) {
  TraceStats Stats;
  // The concrete (final) runtime: its inline handlers run without an
  // indirect call per event.
  Step S = replayInto(RT, Stats, RT.workload().AppStateBytes);
  if (S == Step::Tx) {
    RT.completeTransaction(Stats);
    Total.add(Stats);
  }
  return S;
}

TraceStatus ddm::summarizeTrace(const std::string &Path, TraceSummary &Summary,
                                TraceReaderKind Kind) {
  /// A black hole: summarizing validates and counts without executing.
  class NullExecutor final : public TxExecutor {
    void onAlloc(uint32_t, size_t) override {}
    void onFree(uint32_t) override {}
    void onRealloc(uint32_t, size_t, size_t) override {}
    void onTouch(uint32_t, bool) override {}
    void onWork(uint64_t) override {}
    void onStateTouch(uint64_t, bool) override {}
  };

  TraceReplayer Replayer;
  if (TraceStatus S = Replayer.open(Path, Kind); !S)
    return S;
  Summary.Meta = Replayer.meta();

  const WorkloadSpec *Spec = Replayer.workload();
  uint64_t StateLimit =
      Spec ? Spec->AppStateBytes : TraceReplayer::StateLimitUnknown;

  NullExecutor Sink;
  while (true) {
    TraceStats Stats;
    switch (Replayer.replayTransactionInto(Sink, Stats, StateLimit)) {
    case TraceReplayer::Step::Error:
      return Replayer.status();
    case TraceReplayer::Step::End:
      Summary.Transactions = Replayer.transactionsReplayed();
      Summary.Events = Replayer.eventsReplayed();
      return TraceStatus::success();
    case TraceReplayer::Step::Tx:
      Summary.Total.add(Stats);
      break;
    }
  }
}
