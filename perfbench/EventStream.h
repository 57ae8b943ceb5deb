//===- perfbench/EventStream.h - In-memory transaction streams -*- C++ -*-===//
///
/// \file
/// Transactions generated (or decoded) once during set-up and kept as
/// compact 16-byte records, so the timed window replays them with no
/// generator or decoder in the way. Two consumers:
///
///  - replayIntoRuntime(): the event callbacks of a TransactionRuntime,
///    then completeTransaction() — runtime plus allocator;
///  - DirectReplayer: the allocation events alone straight onto a
///    factory-built TxAllocator through the benchmark's own id->pointer
///    table — the allocator alone, the baseline runtime self time is
///    measured against.
///
//===----------------------------------------------------------------------===//

#ifndef DDM_PERFBENCH_EVENTSTREAM_H
#define DDM_PERFBENCH_EVENTSTREAM_H

#include "core/TxAllocator.h"
#include "runtime/TransactionRuntime.h"
#include "workload/TraceGenerator.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// One event. Realloc packs OldSize into the high and NewSize into the low
/// 32 bits of Arg; the recorder rejects sizes that do not fit.
struct EventRec {
  uint8_t Op; ///< ddm::TraceOp value.
  uint8_t IsWrite;
  uint32_t Id;
  uint64_t Arg;
};
static_assert(sizeof(EventRec) == 16, "compact record");

/// A sequence of transactions and their generator-side statistics.
struct EventStream {
  std::vector<EventRec> Events;
  /// Transaction I spans Events[Begin[I], Begin[I + 1]).
  std::vector<size_t> Begin{0};
  std::vector<ddm::TraceStats> Stats;
  /// Index into the workload mix of each transaction.
  std::vector<unsigned> Workload;
  uint32_t MaxId = 0;

  size_t transactions() const { return Stats.size(); }
  const EventRec *txBegin(size_t I) const { return Events.data() + Begin[I]; }
  const EventRec *txEnd(size_t I) const { return Events.data() + Begin[I + 1]; }
  uint64_t txEvents(size_t I) const { return Begin[I + 1] - Begin[I]; }
};

/// A TxExecutor appending every event it receives to a stream. Call
/// endTransaction() at each boundary. Sets Error on an unrepresentable
/// event.
class StreamRecorder final : public ddm::TxExecutor {
public:
  explicit StreamRecorder(EventStream &S) : S(S) {}

  void endTransaction(const ddm::TraceStats &Stats, unsigned Workload);

  void onAlloc(uint32_t Id, size_t Size) override;
  void onFree(uint32_t Id) override;
  void onRealloc(uint32_t Id, size_t OldSize, size_t NewSize) override;
  void onTouch(uint32_t Id, bool IsWrite) override;
  void onWork(uint64_t Instructions) override;
  void onStateTouch(uint64_t Offset, bool IsWrite) override;

  std::string Error;

private:
  void push(ddm::TraceOp Op, uint32_t Id, uint64_t Arg, bool IsWrite = false);
  EventStream &S;
};

/// Feeds events [B, E) into \p RT's callbacks (not the boundary).
void replayIntoRuntime(ddm::TransactionRuntime &RT, const EventRec *B,
                       const EventRec *E);

/// Replays the allocation events of a stream onto one allocator.
class DirectReplayer {
public:
  explicit DirectReplayer(uint32_t MaxId) : Ptrs(size_t(MaxId) + 1, nullptr) {}

  /// Calls allocate/deallocate/reallocate for the allocation events of
  /// [B, E); returns the number of allocator calls made. Touch, work and
  /// state events are skipped.
  uint64_t replayOps(ddm::TxAllocator &A, const EventRec *B, const EventRec *E);

  /// The end of a transaction: freeAll for bulk-free allocators, else a
  /// per-object free of every object still live. Returns objects swept.
  uint64_t endTransaction(ddm::TxAllocator &A);

private:
  std::vector<void *> Ptrs;
  uint32_t HighId = 0; ///< One past the highest id used this transaction.
};

} // namespace perfbench

#endif // DDM_PERFBENCH_EVENTSTREAM_H
