//===- perfbench/EventStream.cpp - In-memory transaction streams ----------===//

#include "EventStream.h"

#include "trace/TraceEvent.h"

#include <algorithm>

using namespace perfbench;
using ddm::TraceOp;

void StreamRecorder::push(TraceOp Op, uint32_t Id, uint64_t Arg,
                          bool IsWrite) {
  S.Events.push_back(
      EventRec{static_cast<uint8_t>(Op), uint8_t(IsWrite ? 1 : 0), Id, Arg});
  S.MaxId = std::max(S.MaxId, Id);
}

void StreamRecorder::endTransaction(const ddm::TraceStats &Stats,
                                    unsigned Workload) {
  S.Begin.push_back(S.Events.size());
  S.Stats.push_back(Stats);
  S.Workload.push_back(Workload);
}

void StreamRecorder::onAlloc(uint32_t Id, size_t Size) {
  push(TraceOp::Alloc, Id, Size);
}
void StreamRecorder::onFree(uint32_t Id) { push(TraceOp::Free, Id, 0); }
void StreamRecorder::onRealloc(uint32_t Id, size_t OldSize, size_t NewSize) {
  if (OldSize > UINT32_MAX || NewSize > UINT32_MAX)
    Error = "realloc size does not fit the 32-bit record field";
  push(TraceOp::Realloc, Id, (uint64_t(OldSize) << 32) | NewSize);
}
void StreamRecorder::onTouch(uint32_t Id, bool IsWrite) {
  push(TraceOp::Touch, Id, 0, IsWrite);
}
void StreamRecorder::onWork(uint64_t Instructions) {
  push(TraceOp::Work, 0, Instructions);
}
void StreamRecorder::onStateTouch(uint64_t Offset, bool IsWrite) {
  push(TraceOp::StateTouch, 0, Offset, IsWrite);
}

void perfbench::replayIntoRuntime(ddm::TransactionRuntime &RT,
                                  const EventRec *B, const EventRec *E) {
  for (const EventRec *R = B; R != E; ++R) {
    switch (static_cast<TraceOp>(R->Op)) {
    case TraceOp::Alloc:
      RT.onAlloc(R->Id, R->Arg);
      break;
    case TraceOp::Free:
      RT.onFree(R->Id);
      break;
    case TraceOp::Realloc:
      RT.onRealloc(R->Id, R->Arg >> 32, R->Arg & UINT32_MAX);
      break;
    case TraceOp::Touch:
      RT.onTouch(R->Id, R->IsWrite);
      break;
    case TraceOp::Work:
      RT.onWork(R->Arg);
      break;
    case TraceOp::StateTouch:
      RT.onStateTouch(R->Arg, R->IsWrite);
      break;
    default:
      break;
    }
  }
}

uint64_t DirectReplayer::replayOps(ddm::TxAllocator &A, const EventRec *B,
                                   const EventRec *E) {
  uint64_t Calls = 0;
  for (const EventRec *R = B; R != E; ++R) {
    switch (static_cast<TraceOp>(R->Op)) {
    case TraceOp::Alloc:
      Ptrs[R->Id] = A.allocate(R->Arg);
      HighId = std::max(HighId, R->Id + 1);
      ++Calls;
      break;
    case TraceOp::Free:
      A.deallocate(Ptrs[R->Id]);
      Ptrs[R->Id] = nullptr;
      ++Calls;
      break;
    case TraceOp::Realloc:
      Ptrs[R->Id] =
          A.reallocate(Ptrs[R->Id], R->Arg >> 32, R->Arg & UINT32_MAX);
      ++Calls;
      break;
    default:
      break;
    }
  }
  return Calls;
}

uint64_t DirectReplayer::endTransaction(ddm::TxAllocator &A) {
  uint64_t Swept = 0;
  if (A.supportsBulkFree()) {
    A.freeAll();
    std::fill(Ptrs.begin(), Ptrs.begin() + HighId, nullptr);
  } else {
    for (uint32_t Id = 0; Id < HighId; ++Id) {
      if (!Ptrs[Id])
        continue;
      A.deallocate(Ptrs[Id]);
      Ptrs[Id] = nullptr;
      ++Swept;
    }
  }
  HighId = 0;
  return Swept;
}
