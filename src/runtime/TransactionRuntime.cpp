//===- runtime/TransactionRuntime.cpp - PHP/Ruby-style runtime ------------===//

#include "runtime/TransactionRuntime.h"
#include "support/Error.h"
#include "support/FaultInjection.h"

#include <cassert>
#include <cstring>

using namespace ddm;

namespace {

/// Hot-code footprints per allocator for the L1I model: defragmenting
/// allocators carry several times more code (bin management, coalescing,
/// splitting) than a bump pointer — the paper credits DDmalloc's and the
/// region allocator's L1I-miss reductions to "the smaller size of the
/// allocator code".
double codeFootprintFor(AllocatorKind Kind) {
  switch (Kind) {
  case AllocatorKind::Region:
    return 0.5 * 1024;
  case AllocatorKind::Obstack:
    return 1.0 * 1024;
  case AllocatorKind::DDmalloc:
    return 2.0 * 1024;
  case AllocatorKind::TCMalloc:
    return 6.0 * 1024;
  case AllocatorKind::Hoard:
    return 5.0 * 1024;
  case AllocatorKind::Slab:
    // Magazine fast path is tiny; the slab/buddy machinery is cold.
    return 3.0 * 1024;
  case AllocatorKind::Default:
  case AllocatorKind::Glibc:
    return 8.0 * 1024;
  case AllocatorKind::Adaptive:
    // A thin dispatch layer plus whichever strategy is resident; only one
    // inner allocator's hot path is live at a time.
    return 2.5 * 1024;
  }
  unreachable("unknown allocator kind");
}

} // namespace

TransactionRuntime::TransactionRuntime(const WorkloadSpec &W,
                                       const RuntimeConfig &C, AccessSink *S)
    : Workload(W), Config(C), Sink(S), SinkHandleView(S),
      StateArea(W.AppStateBytes, 4096), R(C.Seed, C.RngStream),
      TouchRng(C.Seed ^ 0x70c4e5, C.RngStream),
      CleanupRng(C.Seed ^ 0x51eeb, C.RngStream) {
  Allocator = createAllocator(Config.Kind, Config.AllocOptions);
  Allocator->attachSink(Sink);
  installCorruptionHandler();
  // The interpreter state is mirrored into the sink; register it with the
  // canonical address map (after the allocator's regions, a fixed order).
  SinkHandleView.mapRegion(StateArea.base(), StateArea.size());
  // Fault the state area in once so it behaves like a resident interpreter
  // working set.
  std::memset(StateArea.base(), 0x11, StateArea.size());
}

TransactionRuntime::~TransactionRuntime() {
  SinkHandleView.unmapRegion(StateArea.base());
}

double TransactionRuntime::allocatorCodeFootprintBytes() const {
  return codeFootprintFor(Config.Kind);
}

void TransactionRuntime::setWorkload(const WorkloadSpec &W) {
  if (W.AppStateBytes > StateArea.size())
    fatal("setWorkload: new workload needs " +
          std::to_string(W.AppStateBytes) +
          " bytes of interpreter state but the process reserved only " +
          std::to_string(StateArea.size()));
  Workload = W;
}

TransactionRuntime::ObjectRecord &
TransactionRuntime::growRecords(uint32_t Id) {
  Objects.resize(size_t(Id) + 1);
  return Objects[Id];
}

void TransactionRuntime::canaryMismatch(const char *Where) {
  fatal(std::string("heap corruption detected: canary mismatch ") + Where);
}

void TransactionRuntime::noteOom(size_t FailedBytes) {
  OomPending = true;
  Outcome.Status = TxStatus::OutOfMemory;
  Outcome.AllocatorName = Allocator->name();
  Outcome.PeakLiveBytes = Allocator->stats().PeakUsableBytesLive;
  Outcome.FailedAllocBytes = FailedBytes;
  SinkHandleView.setDomain(CostDomain::Application);
}

void TransactionRuntime::noteCorruption(const CorruptionReport &Report) {
  // One scribble can trip several verifications while the doomed
  // transaction winds down (free, then the rollback's freeAll); the first
  // report is the diagnosis, the rest are echoes.
  if (CorruptionPending)
    return;
  CorruptionPending = true;
  Outcome.Status = TxStatus::HeapCorruption;
  Outcome.AllocatorName = Allocator->name();
  Outcome.PeakLiveBytes = Allocator->stats().PeakUsableBytesLive;
  Outcome.Corruption = Report;
}

void TransactionRuntime::installCorruptionHandler() {
  Hardened = asHardened(Allocator.get());
  if (Hardened)
    Hardened->setReportHandler(
        [this](const CorruptionReport &Report) { noteCorruption(Report); });
}

void TransactionRuntime::onRealloc(uint32_t Id, size_t OldSize,
                                   size_t NewSize) {
  if (Trace) {
    TraceEvent E;
    E.Op = TraceOp::Realloc;
    E.Id = Id;
    E.Size = NewSize;
    E.OldSize = OldSize;
    Trace->event(E);
  }
  if (txAborted())
    return;
  ObjectRecord &Record = recordFor(Id);
  assert(Record.Live && "realloc of a dead object");
  assert(Record.Size == OldSize && "size bookkeeping out of sync");
  SinkHandleView.setDomain(CostDomain::MemoryManagement);
  void *Ptr = faultShouldFail(FaultSite::WorkerHeap)
                  ? nullptr
                  : Allocator->reallocate(Record.Ptr, OldSize, NewSize);
  if (!Ptr) {
    // The old object stays live (realloc contract) and is reclaimed by
    // the rollback with everything else.
    noteOom(NewSize);
    return;
  }
  SinkHandleView.setDomain(CostDomain::Application);
  Record.Ptr = Ptr;
  Record.Size = static_cast<uint32_t>(NewSize);
  if (NewSize >= sizeof(uint32_t))
    *static_cast<uint32_t *>(Ptr) = Id; // refresh the canary
  SinkHandleView.store(Ptr, sizeof(uint32_t));
}

void TransactionRuntime::cleanupTransaction() {
  // Sample memory consumption at the end of the transaction, before any
  // reclamation (paper Figure 9's "during the transactions").
  Metrics.ConsumptionBytes.add(
      static_cast<double>(Allocator->memoryConsumption()));

  SinkHandleView.setDomain(CostDomain::MemoryManagement);
  if (Config.UseBulkFree) {
    // GC-frequency modelling: collect only every N transactions.
    if (Config.BulkFreePeriodTx <= 1 ||
        (Metrics.Transactions + 1) % Config.BulkFreePeriodTx == 0)
      Allocator->freeAll();
  } else {
    // Ruby mode: the GC sweeps dead objects through per-object free; a
    // small fraction of litter escapes until the process restarts.
    for (ObjectRecord &Record : Objects) {
      if (!Record.Live)
        continue;
      if (CleanupRng.nextBool(Config.LeakFraction)) {
        ++LeakedObjects;
      } else {
        Allocator->deallocate(Record.Ptr);
      }
      Record.Live = false;
      Record.Ptr = nullptr;
    }
  }
  SinkHandleView.setDomain(CostDomain::Application);
  Objects.clear();
}

void TransactionRuntime::rollbackTransaction() {
  SinkHandleView.setDomain(CostDomain::MemoryManagement);
  if (Allocator->supportsBulkFree()) {
    Allocator->freeAll();
  } else {
    for (ObjectRecord &Record : Objects) {
      if (!Record.Live)
        continue;
      Allocator->deallocate(Record.Ptr);
      Record.Live = false;
      Record.Ptr = nullptr;
    }
  }
  SinkHandleView.setDomain(CostDomain::Application);
  Objects.clear();
}

void TransactionRuntime::restartProcess() {
  // A fresh process: new heap, interpreter boot cost. The boot cost is
  // charged through the sink so it lands in the measured transactions and
  // is amortized over the restart period automatically.
  Allocator = createAllocator(Config.Kind, Config.AllocOptions);
  Allocator->attachSink(Sink);
  installCorruptionHandler();
  LeakedObjects = 0;
  ++Metrics.Restarts;
  Metrics.RestartInstructions += Config.RestartCostInstructions;
  SinkHandleView.instructions(Config.RestartCostInstructions);
}

TxStatus TransactionRuntime::completeTransaction(const TraceStats &Stats) {
  if (Trace) {
    TraceEvent E;
    E.Op = TraceOp::EndTx;
    Trace->event(E);
  }
  if (txAborted()) {
    rollbackTransaction();
    // Corruption takes precedence over OOM: a scribbled heap explains a
    // failed allocation, not the other way around.
    if (CorruptionPending) {
      ++Metrics.CorruptionAborts;
      CorruptionPending = false;
      OomPending = false;
      Outcome.Status = TxStatus::HeapCorruption;
      return TxStatus::HeapCorruption;
    }
    ++Metrics.OomAborts;
    OomPending = false;
    return TxStatus::OutOfMemory;
  }
  Outcome = TxOutcome();
  cleanupTransaction();
  // The cleanup itself can detect corruption (a canary torn by the
  // transaction's last write, a quarantine recycle finding poison
  // damage). The objects are already reclaimed; abort the transaction
  // after the fact so the caller still sees exactly one failed request.
  if (CorruptionPending) {
    ++Metrics.CorruptionAborts;
    CorruptionPending = false;
    Outcome.Status = TxStatus::HeapCorruption;
    return TxStatus::HeapCorruption;
  }

  Metrics.TotalTrace.add(Stats);
  ++Metrics.Transactions;

  if (!Config.UseBulkFree && Config.RestartPeriodTx != 0 &&
      Metrics.Transactions % Config.RestartPeriodTx == 0)
    restartProcess();
  return TxStatus::Ok;
}

TxStatus TransactionRuntime::executeTransaction() {
  return completeTransaction(runTransaction(Workload, Config.Scale, R, *this));
}
