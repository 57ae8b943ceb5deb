//===- perfbench/ddm_perfbench.cpp - The repository benchmark -------------===//
///
/// \file
/// One command that runs one benchmark workload, checks its outputs, and
/// prints every metric by name with its unit and clock (host wall time or
/// simulated machine-model time). The last line of standard output is one
/// JSON object: {"correct", "attempted", "failed", "metrics"}.
///
///   ddm_perfbench --workload <serve-php|alloc-php|replay-ruby|simulate>
///                 --seed N --seconds S --trace 0|1 --work-dir DIR
///                 [--corrupt-trace truncate|flip]
///
/// --trace 0 measures the workload untraced and reports the end-to-end
/// metrics. --trace 1 is the layer profile: the selected workload runs once
/// untraced and once traced (their gap is bench.tracing_overhead_pct), the
/// other workloads and the per-layer probes run traced, and the spans are
/// written to DIR at the end. Every layer is driven from here through its
/// public functions; README.md lists the metrics and what each should move.
///
/// The end-to-end host-clock figures are reported at a reference host speed
/// (HostSpeed.h): a fixed kernel runs between the timed passes, and each
/// time is scaled by the speed factor of the passes it was measured among.
/// The report prints the raw headline throughput and the speed factor.
///
//===----------------------------------------------------------------------===//

#include "EventStream.h"
#include "HostSpeed.h"
#include "Tracer.h"

#include "core/AllocatorFactory.h"
#include "exec/NativeExecutor.h"
#include "experiments/Measure.h"
#include "runtime/TransactionRuntime.h"
#include "server/LoadGenerator.h"
#include "sim/Platform.h"
#include "trace/MappedTraceReader.h"
#include "trace/TraceRecorder.h"
#include "trace/TraceReplayer.h"
#include "workload/TraceGenerator.h"
#include "workload/WorkloadSpec.h"

#include <algorithm>
#include <alloca.h>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <sys/resource.h>
#include <unistd.h>
#include <vector>

using namespace ddm;
using namespace perfbench;

namespace {

//===----------------------------------------------------------------------===//
// Fixed workload parameters. Changing any of these changes the benchmark.
//===----------------------------------------------------------------------===//

/// The PHP mix of serve-php and alloc-php: mediawiki-read:2, sugarcrm:1,
/// phpbb:1 at scale 0.2.
constexpr double PhpScale = 0.2;
const char *const PhpMixNames[] = {"mediawiki-read", "sugarcrm", "phpbb"};
const double PhpMixWeights[] = {2, 1, 1};
/// alloc-php's stream: this pattern of mix indices, repeated (exactly 2:1:1).
const unsigned PhpPattern[] = {0, 1, 0, 2};
constexpr unsigned PhpStreamTx = 12;

/// serve-php: worker threads, and the fixed open-loop rate. The closed-loop
/// saturation rate on the commit that introduced the benchmark was 65-215
/// tx/s with 2 workers (4 vCPUs, depending on the shared host's load); the
/// rate keeps utilization near or below half of it even when the host is
/// slow, because a tail at higher utilization swings with the neighbours'
/// load, not with the code. The 40 s open loop of a 50 s run gives p99
/// about 1440 samples.
constexpr unsigned ServeThreads = 2;
constexpr double ServeRatePerSec = 36.0;
/// Share of the timed window spent in the closed-loop saturation phase,
/// which runs as segments of this many requests, alternating allocators.
constexpr double ServeSaturationShare = 0.2;
constexpr uint64_t ServeSegmentTx = 60;
/// The arrival schedule and the mix order are part of the workload, not of
/// the seed: --seed drives the generated transactions.
constexpr uint64_t ServeLoadSeed = 0x10ad;

/// replay-ruby: the rails workload, restarted every 20 transactions (one
/// of the paper's Figure 12 periods); the trace holds two periods.
constexpr double RubyScale = 0.1;
constexpr uint64_t RubyRestartPeriod = 20;
constexpr unsigned RubyTraceTx = 2 * RubyRestartPeriod;

/// simulate: the machine-model points, all at this scale on xeonLike().
constexpr double SimScale = 0.2;

/// Set-up repetitions whose median is setup_s.
constexpr unsigned DefaultSetupReps = 15;

//===----------------------------------------------------------------------===//
// Small statistics helpers.
//===----------------------------------------------------------------------===//

/// Linear-interpolation quantile of \p V (copied, so callers keep order).
double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}
double median(const std::vector<double> &V) { return quantile(V, 0.5); }

/// Blocks of at least 16 passes in \p Samples times of \p PerPass each.
size_t blockCount(size_t Samples, size_t PerPass) {
  return std::max<size_t>(1, (PerPass ? Samples / PerPass : 0) / 16);
}

/// Quantile \p Q of a replay's per-transaction times, each transaction's
/// time first averaged over a block of at least 16 consecutive passes. \p V
/// holds whole passes of \p PerPass times each. Every pass runs on another
/// stack offset (onShiftedStack), and the offsets spread one transaction's
/// times widely (3.0-5.2 ms, 10th to 90th percentile, for a mediawiki-read
/// transaction of alloc-php), so a plain median moves with the share of
/// fast offsets the host lets through. A block mean weighs the offsets as
/// the throughput's total over total does. For the same reason the 99th
/// percentile is taken over the block means too: a plain one picks the
/// few slowest passes of the slowest transaction, which is host noise.
double blockQuantile(const std::vector<double> &V, size_t PerPass, double Q) {
  size_t Passes = PerPass ? V.size() / PerPass : 0;
  size_t Blocks = blockCount(V.size(), PerPass);
  std::vector<double> Means;
  for (size_t B = 0; Passes && B < Blocks; ++B) {
    size_t First = B * Passes / Blocks, Last = (B + 1) * Passes / Blocks;
    for (size_t T = 0; T < PerPass; ++T) {
      double Sum = 0;
      for (size_t P = First; P < Last; ++P)
        Sum += V[P * PerPass + T];
      Means.push_back(Sum / static_cast<double>(Last - First));
    }
  }
  return quantile(Means, Q);
}

double peakRssMb() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0;
}

/// Spearman rank correlation of two equally long series without ties.
double rankAgreement(const std::vector<double> &A,
                     const std::vector<double> &B) {
  auto Ranks = [](const std::vector<double> &V) {
    std::vector<double> R(V.size());
    for (size_t I = 0; I < V.size(); ++I)
      for (size_t J = 0; J < V.size(); ++J)
        R[I] += V[J] < V[I];
    return R;
  };
  std::vector<double> Ra = Ranks(A), Rb = Ranks(B);
  double N = static_cast<double>(A.size()), D2 = 0;
  for (size_t I = 0; I < A.size(); ++I)
    D2 += (Ra[I] - Rb[I]) * (Ra[I] - Rb[I]);
  return 1.0 - 6.0 * D2 / (N * (N * N - 1.0));
}

//===----------------------------------------------------------------------===//
// Results.
//===----------------------------------------------------------------------===//

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
  /// "host" (wall time), "simulated" (machine model), or "exact" (a count
  /// that repeats exactly for a seed).
  std::string Clock;
  std::string Note;
};

/// What one workload pass (or the layer probes) produced.
struct Result {
  std::vector<Metric> Metrics;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Errors;
  /// tx_per_s.ddmalloc: the figure the tracing overhead compares.
  double Headline = 0;

  void add(std::string Name, double Value, std::string Unit,
           std::string Clock, std::string Note = "") {
    Metrics.push_back({std::move(Name), Value, std::move(Unit),
                       std::move(Clock), std::move(Note)});
  }
  /// Records a failed correctness check (counted in fail_ratio).
  void fail(std::string Message) {
    Errors.push_back(std::move(Message));
    ++Failed;
    ++Attempted;
  }
  void check(bool Ok, const std::string &What) {
    if (!Ok)
      fail("check failed: " + What);
  }
  double get(const std::string &Name) const {
    for (const Metric &M : Metrics)
      if (M.Name == Name)
        return M.Value;
    return 0;
  }
};

struct Context {
  uint64_t Seed = 1;
  std::string WorkDir;
  std::string Corrupt; ///< Smoke test: damage the recorded trace.
  Tracer *T = nullptr; ///< Null in untraced passes.
  unsigned SetupReps = DefaultSetupReps;
};

/// Calls \p Fn with the stack moved down by 16 * ((97 * Round) mod 256)
/// bytes. Where hot stack slots land within a page relative to hot heap
/// data moves a replay's speed by up to a third (two modes, about 240 and
/// 340 tx/s for alloc-php's ddmalloc on the reference host). main() first
/// pins the stack to a fixed page offset, so every process then visits the
/// same offsets in the same order: runs differ by the host, not by layout
/// luck, and a change to the code is measured over many layouts, not one.
template <class F>
__attribute__((noinline)) auto onShiftedStack(uint64_t Round, F &&Fn) {
  size_t Shift = 16 * ((97 * Round) % 256);
  volatile char *Pad = static_cast<char *>(alloca(Shift + 16));
  Pad[0] = 0;
  auto Result = Fn();
  Pad[Shift] = 0;
  return Result;
}

/// The latency/throughput summary printed with each distribution.
std::string sampleNote(size_t N, double Q) {
  return "n=" + std::to_string(N) + ", " +
         std::to_string(static_cast<long long>(std::floor(N * (1 - Q)))) +
         " samples beyond";
}

/// The same for a blockQuantile() over \p Samples times of \p PerPass
/// distinct transactions.
std::string blockNote(size_t Samples, size_t PerPass, double Q) {
  size_t Blocks = blockCount(Samples, PerPass);
  return sampleNote(Blocks * PerPass, Q) + " (" + std::to_string(PerPass) +
         " transactions x " + std::to_string(Blocks) + " blocks)";
}

/// Runs \p Setup SetupReps times and returns the median duration at the
/// reference speed, each repetition scaled by the speed factor of a
/// reference pass run just before it; the last repetition's products are
/// what the workload keeps.
double timedSetup(const Context &C, const std::function<void()> &Setup) {
  std::vector<double> Sec;
  for (unsigned I = 0; I < C.SetupReps; ++I) {
    double Factor = HostSpeed().sample();
    SpanScope S(C.T, "setup", "setup", I);
    Clock::time_point Start = Clock::now();
    Setup();
    Sec.push_back(secondsSince(Start) * Factor);
  }
  return median(Sec);
}

/// The note of a figure reported at the reference speed.
std::string rawNote(double Raw, const char *Unit, double Factor) {
  char Buf[96];
  std::snprintf(Buf, sizeof Buf, "raw %.4g %s at speed factor %.3f", Raw, Unit,
                Factor);
  return Buf;
}

std::vector<WorkloadSpec> phpMix() {
  std::vector<WorkloadSpec> Mix;
  for (const char *Name : PhpMixNames)
    Mix.push_back(*findWorkload(Name));
  return Mix;
}

/// Generates alloc-php's stream: PhpStreamTx transactions cycling through
/// PhpPattern, each workload drawing from its own seeded generator stream.
EventStream generatePhpStream(uint64_t Seed, Result &R) {
  std::vector<WorkloadSpec> Mix = phpMix();
  std::vector<Rng> Rngs;
  for (unsigned W = 0; W < Mix.size(); ++W)
    Rngs.emplace_back(Seed, W);
  EventStream S;
  StreamRecorder Rec(S);
  for (unsigned I = 0; I < PhpStreamTx; ++I) {
    unsigned W = PhpPattern[I % std::size(PhpPattern)];
    TraceStats Stats = runTransaction(Mix[W], PhpScale, Rngs[W], Rec);
    Rec.endTransaction(Stats, W);
  }
  R.check(Rec.Error.empty(), "php stream: " + Rec.Error);
  return S;
}

bool sameStats(const TraceStats &A, const TraceStats &B) {
  return A.Mallocs == B.Mallocs && A.Frees == B.Frees &&
         A.Reallocs == B.Reallocs && A.AllocatedBytes == B.AllocatedBytes &&
         A.ObjectTouches == B.ObjectTouches &&
         A.StateTouches == B.StateTouches &&
         A.WorkInstructions == B.WorkInstructions;
}

/// Counts the stream's events by op and compares them with the generator's
/// statistics of each transaction.
void checkStreamMatchesGenerator(const EventStream &S, Result &R) {
  for (size_t Tx = 0; Tx < S.transactions(); ++Tx) {
    TraceStats Got;
    for (const EventRec *E = S.txBegin(Tx); E != S.txEnd(Tx); ++E) {
      switch (static_cast<TraceOp>(E->Op)) {
      case TraceOp::Alloc:
        ++Got.Mallocs;
        Got.AllocatedBytes += E->Arg;
        break;
      case TraceOp::Free:
        ++Got.Frees;
        break;
      case TraceOp::Realloc:
        ++Got.Reallocs;
        break;
      case TraceOp::Touch:
        ++Got.ObjectTouches;
        break;
      case TraceOp::StateTouch:
        ++Got.StateTouches;
        break;
      case TraceOp::Work:
        Got.WorkInstructions += E->Arg;
        break;
      default:
        break;
      }
    }
    R.check(sameStats(Got, S.Stats[Tx]),
            "stream transaction " + std::to_string(Tx) +
                " differs from the generator's statistics");
  }
}

/// An allocator's counters against the stream it served: every malloc,
/// free and realloc reached it, and a realloc that moved the object counts
/// one extra malloc, plus one extra free where per-object free exists.
void checkCounters(const TxAllocator &Alloc, const TraceStats &Want,
                   uint64_t ExtraFrees, const std::string &Where, Result &R) {
  const AllocatorStats &A = Alloc.stats();
  uint64_t Moves = A.MallocCalls - Want.Mallocs;
  uint64_t Frees = Want.Frees + ExtraFrees +
                   (Alloc.supportsPerObjectFree() ? Moves : 0);
  auto U = [](uint64_t V) { return std::to_string(V); };
  R.check(A.MallocCalls >= Want.Mallocs && Moves <= Want.Reallocs &&
              A.FreeCalls == Frees && A.ReallocCalls == Want.Reallocs,
          Where + ": allocator counters (malloc/free/realloc " +
              U(A.MallocCalls) + "/" + U(A.FreeCalls) + "/" +
              U(A.ReallocCalls) + ") match the stream (" + U(Want.Mallocs) +
              "/" + U(Frees) + "/" + U(Want.Reallocs) + ")");
}


//===----------------------------------------------------------------------===//
// serve-php: NativeExecutor, 2 workers, generator inside each request.
//===----------------------------------------------------------------------===//

NativeExecutorConfig serveConfig(AllocatorKind Kind, uint64_t Seed) {
  NativeExecutorConfig Cfg;
  Cfg.Kind = Kind;
  Cfg.Mix = phpMix();
  Cfg.Load.MixWeights.assign(std::begin(PhpMixWeights),
                             std::end(PhpMixWeights));
  Cfg.Load.Seed = ServeLoadSeed;
  Cfg.Threads = ServeThreads;
  Cfg.Scale = PhpScale;
  Cfg.Seed = Seed;
  Cfg.PopBatch = 1;
  return Cfg;
}

/// A closed-loop run: the bounded queue (two requests per worker) is the
/// client population's back-pressure.
NativeRunMetrics serveClosed(AllocatorKind Kind, uint64_t Seed, uint64_t Tx) {
  NativeExecutorConfig Cfg = serveConfig(Kind, Seed);
  Cfg.Load.Process = ArrivalProcess::ClosedLoop;
  Cfg.QueueCapacity = 2 * ServeThreads;
  Cfg.TotalTransactions = Tx;
  return runNative(Cfg);
}

/// Requests runNative's producer offers in \p Sec when it is never late:
/// it checks the clock, draws the next arrival, sleeps until it and
/// enqueues, so it offers every arrival drawn while the previous one was
/// before the deadline.
uint64_t expectedOffers(const LoadConfig &Load, double Sec) {
  LoadGenerator G(Load);
  uint64_t N = 0;
  for (double Prev = 0; Prev < Sec; ++N) {
    Prev = G.nextArrivalSec();
    G.pickWorkload();
  }
  return N;
}

/// Per-transaction milliseconds at the reference speed: \p Sec holds whole
/// passes of \p PerPass times, one pass per round. Each pass takes the
/// speed factor of the reference passes of the rounds within 8 of its own
/// (total over total), which follows the host's drift over seconds without
/// the scatter of a single reference pass.
std::vector<double> scaledMs(const std::vector<double> &Sec, size_t PerPass,
                             const std::vector<double> &RoundFactor) {
  constexpr size_t Window = 8;
  const size_t Rounds = RoundFactor.size();
  std::vector<double> Ms;
  for (size_t I = 0; I < Sec.size(); ++I) {
    size_t Round = I / PerPass;
    size_t Lo = Round > Window ? Round - Window : 0;
    size_t Hi = std::min(Rounds, Round + Window + 1);
    double RefSec = 0; // in units of the reference pass's nominal time
    for (size_t R = Lo; R < Hi; ++R)
      RefSec += 1.0 / RoundFactor[R];
    Ms.push_back(Sec[I] * static_cast<double>(Hi - Lo) / RefSec * 1e3);
  }
  return Ms;
}

void tallyNative(const NativeRunMetrics &M, Result &R) {
  R.Attempted += M.Offered;
  R.Failed += M.Offered - std::min(M.Offered, M.Completed);
}

Result runServePhp(Context &C, double Budget) {
  Result R;
  // Set-up: a short warm-up run per allocator (thread start, heap
  // construction, first transactions); nothing else precedes the window.
  double SetupSec = timedSetup(C, [&] {
    for (AllocatorKind K : {AllocatorKind::DDmalloc, AllocatorKind::Default}) {
      NativeRunMetrics M = serveClosed(K, C.Seed, 4 * ServeThreads);
      R.check(M.Completed == M.Offered, "serve-php warm-up lost requests");
    }
  });

  // Saturation: alternate short closed-loop segments so both allocators
  // see the same host conditions; report the median segment, each at the
  // speed factor of the reference pass before its pair.
  double SatSec = Budget * ServeSaturationShare;
  std::map<AllocatorKind, std::vector<double>> Tps, Eps, Busy, Imbalance;
  std::vector<double> RawTps;
  HostSpeed SatSpeed;
  unsigned Segments = 0;
  Clock::time_point SatStart = Clock::now();
  for (; Segments < 2 || secondsSince(SatStart) < SatSec; ++Segments) {
    double Factor = SatSpeed.sample();
    for (AllocatorKind K : {AllocatorKind::DDmalloc, AllocatorKind::Default}) {
      SpanScope S(C.T, C.T ? C.T->intern(std::string("exec.saturation.") +
                                         allocatorKindName(K))
                           : "",
                  "saturation", Segments);
      NativeRunMetrics M = serveClosed(K, C.Seed, ServeSegmentTx);
      S.Items = M.Completed;
      tallyNative(M, R);
      Tps[K].push_back(M.Throughput / Factor);
      if (K == AllocatorKind::DDmalloc)
        RawTps.push_back(M.Throughput);
      const AllocatorStats &A = M.Allocator;
      Eps[K].push_back(
          static_cast<double>(A.MallocCalls + A.FreeCalls + A.ReallocCalls) /
          M.WallSec / Factor);
      Busy[K].push_back(ServeThreads * M.WallSec * 1e6 /
                            std::max<uint64_t>(1, M.Completed));
      uint64_t Lo = UINT64_MAX, Hi = 0;
      for (const NativeThreadMetrics &TM : M.PerThread) {
        Lo = std::min(Lo, TM.Completed);
        Hi = std::max(Hi, TM.Completed);
      }
      Imbalance[K].push_back(static_cast<double>(Hi) /
                             static_cast<double>(std::max<uint64_t>(1, Lo)));
    }
  }

  // Fixed-rate open loop: latency well below saturation. The producer and
  // the workers own the window, so the latencies take the speed factor of
  // reference passes just before and just after it.
  HostSpeed OpenSpeed;
  OpenSpeed.sample();
  NativeExecutorConfig Open = serveConfig(AllocatorKind::DDmalloc, C.Seed);
  Open.Load.Process = ArrivalProcess::Poisson;
  Open.Load.RatePerSec = ServeRatePerSec;
  Open.QueueCapacity = 4096;
  Open.DurationSec = std::max(0.5, Budget - secondsSince(SatStart));
  Open.TotalTransactions = 0;
  NativeRunMetrics M;
  {
    SpanScope S(C.T, "exec.open_loop", "open-loop");
    M = runNative(Open);
    S.Items = M.Completed;
  }
  tallyNative(M, R);
  OpenSpeed.sample();
  uint64_t Expected = expectedOffers(Open.Load, Open.DurationSec);

  double Tx = median(Tps[AllocatorKind::DDmalloc]);
  double OpenF = OpenSpeed.factor();
  R.Headline = Tx;
  R.add("setup_s", SetupSec, "s", "host", "warm-up serving runs, median of reps");
  R.add("peak_rss_mb", peakRssMb(), "MB", "host");
  R.add("tx_per_s.ddmalloc", Tx, "tx/s", "host",
        "closed-loop saturation, median of " + std::to_string(Segments) +
            " segments; " +
            rawNote(median(RawTps), "tx/s", SatSpeed.factor()));
  R.add("tx_per_s.baseline", median(Tps[AllocatorKind::Default]), "tx/s",
        "host", "default (Zend) allocator, same segments");
  R.add("events_per_s", median(Eps[AllocatorKind::DDmalloc]), "1/s", "host",
        "allocator calls per second at saturation, ddmalloc");
  double P50 = M.LatencyUs.percentile(0.50) / 1e3;
  double P99 = M.LatencyUs.percentile(0.99) / 1e3;
  R.add("p50_ms", P50 * OpenF, "ms", "host",
        "open loop at " + std::to_string(int(ServeRatePerSec)) + " tx/s, " +
            sampleNote(M.LatencyUs.count(), 0.50) + "; " +
            rawNote(P50, "ms", OpenF));
  R.add("p99_ms", P99 * OpenF, "ms", "host",
        sampleNote(M.LatencyUs.count(), 0.99) + "; " +
            rawNote(P99, "ms", OpenF));
  R.add("host.speed_factor", SatSpeed.factor(), "ratio", "host",
        "reference passes of the saturation phase");
  R.add("exec.queue_max_depth", static_cast<double>(M.QueueMaxDepth), "count",
        "host", "open-loop phase");
  R.add("exec.thread_imbalance", median(Imbalance[AllocatorKind::DDmalloc]),
        "ratio", "host", "most/fewest transactions per worker, saturation");
  R.add("exec.busy_us_per_tx", median(Busy[AllocatorKind::DDmalloc]),
        "us", "host", "threads x wall / completed at saturation, ddmalloc");
  R.add("server.offered_rate_ratio",
        static_cast<double>(M.Offered) / static_cast<double>(Expected), "ratio",
        "host", "offered/expected arrivals of the open-loop phase");
  return R;
}

//===----------------------------------------------------------------------===//
// alloc-php: pre-generated stream replayed into TransactionRuntime.
//===----------------------------------------------------------------------===//

struct AllocConfig {
  const char *Name;
  AllocatorKind Kind;
  bool Hardened;
};
const AllocConfig PhpConfigs[] = {
    {"ddmalloc", AllocatorKind::DDmalloc, false},
    {"default", AllocatorKind::Default, false},
    {"adaptive", AllocatorKind::Adaptive, false},
    {"ddmalloc-hardened", AllocatorKind::DDmalloc, true},
};

/// One runtime per mix workload (index = mix index) for one allocator
/// configuration, as each native worker has.
using PhpRuntimes = std::vector<std::unique_ptr<TransactionRuntime>>;

PhpRuntimes makePhpRuntimes(const AllocConfig &A, uint64_t Seed) {
  PhpRuntimes P;
  for (const WorkloadSpec &W : phpMix()) {
    RuntimeConfig RC;
    RC.Kind = A.Kind;
    RC.AllocOptions.Hardening.Enabled = A.Hardened;
    RC.UseBulkFree = allocatorSupportsBulkFree(A.Kind);
    RC.Scale = PhpScale;
    RC.Seed = Seed;
    P.push_back(std::make_unique<TransactionRuntime>(W, RC));
  }
  return P;
}

/// Replays the whole stream once into \p P; appends per-transaction host
/// seconds to \p TxSec when given. Returns the pass's host seconds.
double replayPhpPass(Context &C, const EventStream &S, PhpRuntimes &P,
                     const char *SpanName, std::vector<double> *TxSec,
                     Result &R) {
  Clock::time_point Pass = Clock::now();
  for (size_t Tx = 0; Tx < S.transactions(); ++Tx) {
    TransactionRuntime &RT = *P[S.Workload[Tx]];
    SpanScope Span(C.T, SpanName, "replay", Tx);
    Clock::time_point Start = Clock::now();
    replayIntoRuntime(RT, S.txBegin(Tx), S.txEnd(Tx));
    TxStatus St = RT.completeTransaction(S.Stats[Tx]);
    if (TxSec)
      TxSec->push_back(secondsSince(Start));
    Span.Items = S.txEvents(Tx);
    ++R.Attempted;
    R.Failed += St != TxStatus::Ok;
  }
  return secondsSince(Pass);
}

/// The allocator counters of a PHP runtime set must match \p Passes
/// replays of the stream.
void checkPhpCounters(const char *Name, const EventStream &S,
                      const PhpRuntimes &P, uint64_t Passes, Result &R) {
  for (unsigned W = 0; W < P.size(); ++W) {
    TraceStats Want;
    uint64_t Tx = 0;
    for (size_t I = 0; I < S.transactions(); ++I)
      if (S.Workload[I] == W) {
        Want.add(S.Stats[I]);
        ++Tx;
      }
    TransactionRuntime &RT = *P[W];
    std::string Where = std::string(Name) + "/" + RT.workload().Name;
    R.check(RT.metrics().Transactions == Tx * Passes,
            Where + ": transactions completed");
    TraceStats All;
    for (uint64_t I = 0; I < Passes; ++I)
      All.add(Want);
    checkCounters(RT.allocator(), All, 0, Where, R);
  }
}

Result runAllocPhp(Context &C, double Budget, EventStream &Stream) {
  Result R;
  std::vector<PhpRuntimes> Runtimes;
  double SetupSec = timedSetup(C, [&] {
    Stream = generatePhpStream(C.Seed, R);
    Runtimes.clear();
    for (const AllocConfig &A : PhpConfigs)
      Runtimes.push_back(makePhpRuntimes(A, C.Seed));
  });
  checkStreamMatchesGenerator(Stream, R);

  // Warm-up: one untimed pass per configuration.
  const size_t NC = std::size(PhpConfigs);
  for (size_t I = 0; I < NC; ++I)
    replayPhpPass(C, Stream, Runtimes[I], "runtime.warmup", nullptr, R);

  // Per configuration: host seconds over all rounds. Throughput is the
  // mean over the rounds (total over total): a round's speed depends on its
  // stack offset (onShiftedStack), and every run visits the same offsets.
  // A reference pass opens every round: the rounds' total over the passes'
  // total is the throughput at the reference speed, and each transaction's
  // time takes the factor of the rounds near its own (scaledMs).
  std::vector<double> ConfigSec(NC);
  std::vector<double> DdTxSec, RoundFactor;
  HostSpeed Speed;
  std::vector<const char *> SpanNames;
  for (const AllocConfig &A : PhpConfigs)
    SpanNames.push_back(C.T ? C.T->intern(std::string("runtime.replay.") +
                                          A.Name)
                            : "");
  uint64_t Events = 0;
  for (size_t Tx = 0; Tx < Stream.transactions(); ++Tx)
    Events += Stream.txEvents(Tx);
  double TotalSec = 0;
  uint64_t Rounds = 0;
  Clock::time_point Start = Clock::now();
  do {
    RoundFactor.push_back(Speed.sample());
    for (size_t J = 0; J < NC; ++J) {
      size_t I = (J + Rounds) % NC; // rotate which configuration goes first
      double Sec = onShiftedStack(Rounds, [&] {
        return replayPhpPass(C, Stream, Runtimes[I], SpanNames[I],
                             I == 0 ? &DdTxSec : nullptr, R);
      });
      ConfigSec[I] += Sec;
      TotalSec += Sec;
    }
    ++Rounds;
  } while (secondsSince(Start) < Budget);

  for (size_t I = 0; I < NC; ++I)
    checkPhpCounters(PhpConfigs[I].Name, Stream, Runtimes[I], Rounds + 1, R);

  const double F = Speed.factor();
  auto Tps = [&](size_t I) {
    return static_cast<double>(Stream.transactions() * Rounds) / ConfigSec[I] /
           F;
  };
  R.Headline = Tps(0);
  std::vector<double> Ms = scaledMs(DdTxSec, Stream.transactions(),
                                    RoundFactor);
  R.add("setup_s", SetupSec, "s", "host",
        "generation + runtime construction, median of reps");
  R.add("peak_rss_mb", peakRssMb(), "MB", "host");
  R.add("tx_per_s.ddmalloc", R.Headline, "tx/s", "host",
        std::to_string(Rounds) + " rounds; " +
            rawNote(R.Headline * F, "tx/s", F));
  R.add("tx_per_s.baseline", Tps(1), "tx/s", "host",
        "default (Zend) allocator");
  R.add("events_per_s",
        static_cast<double>(Events * Rounds * NC) / TotalSec / F, "1/s",
        "host", "events replayed over all four configurations");
  R.add("p50_ms", blockQuantile(Ms, Stream.transactions(), 0.5), "ms", "host",
        "per-transaction replay time, ddmalloc, averaged over blocks of "
        ">= 16 passes");
  R.add("p99_ms", blockQuantile(Ms, Stream.transactions(), 0.99), "ms",
        "host", blockNote(Ms.size(), Stream.transactions(), 0.99));
  R.add("host.speed_factor", F, "ratio", "host",
        std::to_string(Speed.samples()) + " reference passes");
  for (size_t I = 1; I < NC; ++I)
    R.add(std::string("tx_per_s.") + PhpConfigs[I].Name, Tps(I), "tx/s",
          "host", "alloc-php configuration");
  return R;
}

//===----------------------------------------------------------------------===//
// replay-ruby: a recorded rails trace replayed through TraceReplayer.
//===----------------------------------------------------------------------===//

const AllocatorKind RubyKinds[] = {AllocatorKind::DDmalloc,
                                   AllocatorKind::Glibc,
                                   AllocatorKind::TCMalloc,
                                   AllocatorKind::Hoard};

RuntimeConfig rubyConfig(AllocatorKind Kind, uint64_t Seed) {
  RuntimeConfig RC;
  RC.Kind = Kind;
  RC.UseBulkFree = false;
  RC.RestartPeriodTx = RubyRestartPeriod;
  RC.Scale = RubyScale;
  RC.Seed = Seed;
  return RC;
}

/// Records the rails trace; returns the recorder's statistics.
TraceStats recordRubyTrace(const std::string &Path, uint64_t Seed,
                           Result &R) {
  TraceRecorder Rec;
  TraceMeta Meta{"rails", RubyScale, Seed};
  if (TraceStatus S = Rec.open(Path, Meta); !S) {
    R.fail("cannot record trace: " + S.describe());
    return {};
  }
  TransactionRuntime RT(*findWorkload("rails"),
                        rubyConfig(AllocatorKind::DDmalloc, Seed));
  RT.attachTraceSink(&Rec);
  for (unsigned I = 0; I < RubyTraceTx; ++I)
    R.check(RT.executeTransaction() == TxStatus::Ok, "recording transaction");
  RT.attachTraceSink(nullptr);
  if (TraceStatus S = Rec.finish(); !S)
    R.fail("trace write failed: " + S.describe());
  return Rec.stats();
}

/// Damages the trace for the smoke test: cut it mid-frame, or flip a byte.
void corruptTrace(const std::string &Path, const std::string &How) {
  uintmax_t Size = std::filesystem::file_size(Path);
  if (How == "truncate") {
    std::filesystem::resize_file(Path, Size * 2 / 3);
    return;
  }
  std::FILE *F = std::fopen(Path.c_str(), "r+b");
  if (!F)
    return;
  std::fseek(F, static_cast<long>(Size / 2), SEEK_SET);
  int B = std::fgetc(F);
  std::fseek(F, static_cast<long>(Size / 2), SEEK_SET);
  std::fputc(B ^ 0x5a, F);
  std::fclose(F);
}

/// One full replay of the trace into \p RT. Returns host seconds.
double replayRubyPass(Context &C, const std::string &Path,
                      TransactionRuntime &RT, const TraceStats &Recorded,
                      const char *SpanName, std::vector<double> *TxSec,
                      uint64_t &Events, Result &R) {
  Clock::time_point Pass = Clock::now();
  TraceReplayer Rp;
  if (TraceStatus S = Rp.open(Path, TraceReaderKind::Mapped); !S) {
    R.fail("replay open: " + S.describe());
    return secondsSince(Pass);
  }
  uint64_t Aborts = RT.metrics().OomAborts + RT.metrics().CorruptionAborts;
  for (int64_t Tx = 0;; ++Tx) {
    SpanScope Span(C.T, SpanName, "replay", Tx);
    uint64_t Before = Rp.eventsReplayed();
    Clock::time_point Start = Clock::now();
    TraceReplayer::Step St = Rp.replayTransaction(RT);
    if (St != TraceReplayer::Step::Tx)
      break;
    if (TxSec)
      TxSec->push_back(secondsSince(Start));
    Span.Items = Rp.eventsReplayed() - Before;
    ++R.Attempted;
  }
  double Sec = secondsSince(Pass);
  Events += Rp.eventsReplayed();
  R.Failed += RT.metrics().OomAborts + RT.metrics().CorruptionAborts - Aborts;
  R.check(Rp.status().ok(), "replay status: " + Rp.status().describe());
  R.check(Rp.transactionsReplayed() == RubyTraceTx,
          "replayed " + std::to_string(Rp.transactionsReplayed()) + " of " +
              std::to_string(RubyTraceTx) + " transactions");
  R.check(sameStats(Rp.totalStats(), Recorded),
          "replayed TraceStats equal the recorded ones");
  return Sec;
}

Result runReplayRuby(Context &C, double Budget, std::string &TracePath,
                     TraceStats &Recorded) {
  Result R;
  TracePath = C.WorkDir + "/rails-" + std::to_string(getpid()) + ".ddmtrc";
  std::vector<std::unique_ptr<TransactionRuntime>> Runtimes;
  double SetupSec = timedSetup(C, [&] {
    Recorded = recordRubyTrace(TracePath, C.Seed, R);
    Runtimes.clear();
    for (AllocatorKind K : RubyKinds)
      Runtimes.push_back(std::make_unique<TransactionRuntime>(
          *findWorkload("rails"), rubyConfig(K, C.Seed)));
  });
  if (!C.Corrupt.empty())
    corruptTrace(TracePath, C.Corrupt);

  const size_t NK = std::size(RubyKinds);
  std::vector<const char *> SpanNames;
  for (AllocatorKind K : RubyKinds)
    SpanNames.push_back(C.T ? C.T->intern(std::string("trace.replay.") +
                                          allocatorKindName(K))
                            : "");
  // Warm-up: one untimed pass per allocator. Every restart re-creates the
  // heap, so a pass leaves each runtime as it started: just restarted.
  uint64_t Events = 0;
  for (size_t I = 0; I < NK; ++I)
    replayRubyPass(C, TracePath, *Runtimes[I], Recorded, "trace.warmup",
                   nullptr, Events, R);

  // As in alloc-php: total over total, a reference pass opening each round.
  std::vector<double> KindSec(NK);
  std::vector<double> DdTxSec, RoundFactor;
  HostSpeed Speed;
  double TotalSec = 0;
  uint64_t Rounds = 0;
  Events = 0;
  Clock::time_point Start = Clock::now();
  do {
    RoundFactor.push_back(Speed.sample());
    for (size_t J = 0; J < NK; ++J) {
      size_t I = (J + Rounds) % NK;
      double Sec = onShiftedStack(Rounds, [&] {
        return replayRubyPass(C, TracePath, *Runtimes[I], Recorded,
                              SpanNames[I], I == 0 ? &DdTxSec : nullptr,
                              Events, R);
      });
      KindSec[I] += Sec;
      TotalSec += Sec;
    }
    ++Rounds;
  } while (secondsSince(Start) < Budget && R.Errors.empty());
  for (size_t I = 0; I < NK; ++I)
    R.check(Runtimes[I]->metrics().Transactions == RubyTraceTx * (Rounds + 1),
            std::string(allocatorKindName(RubyKinds[I])) +
                ": runtime completed every replayed transaction");

  const double F = Speed.factor();
  auto Tps = [&](size_t I) {
    return static_cast<double>(RubyTraceTx * Rounds) / KindSec[I] / F;
  };
  R.Headline = Tps(0);
  std::vector<double> Ms = scaledMs(DdTxSec, RubyTraceTx, RoundFactor);
  R.add("setup_s", SetupSec, "s", "host",
        "trace recording + runtime construction, median of reps");
  R.add("peak_rss_mb", peakRssMb(), "MB", "host");
  R.add("tx_per_s.ddmalloc", R.Headline, "tx/s", "host",
        std::to_string(Rounds) + " rounds; " +
            rawNote(R.Headline * F, "tx/s", F));
  R.add("tx_per_s.baseline", Tps(1), "tx/s", "host",
        "glibc model (Ruby's default malloc)");
  R.add("events_per_s", static_cast<double>(Events) / TotalSec / F, "1/s",
        "host", "trace events replayed over the whole replay");
  R.add("p50_ms", blockQuantile(Ms, RubyTraceTx, 0.5), "ms", "host",
        "per-transaction replay time, ddmalloc, averaged over blocks of "
        ">= 16 passes");
  R.add("p99_ms", blockQuantile(Ms, RubyTraceTx, 0.99), "ms", "host",
        blockNote(Ms.size(), RubyTraceTx, 0.99));
  R.add("host.speed_factor", F, "ratio", "host",
        std::to_string(Speed.samples()) + " reference passes");
  for (size_t I = 1; I < NK; ++I)
    R.add(std::string("tx_per_s.") + allocatorKindName(RubyKinds[I]),
          Tps(I), "tx/s", "host", "replay-ruby allocator");
  return R;
}

//===----------------------------------------------------------------------===//
// simulate: machine-model points, sequential, one thread.
//===----------------------------------------------------------------------===//

struct SimSpec {
  const char *Workload;
  AllocatorKind Kind;
  bool Sampling;
};
/// Points 0-2 are the ddmalloc/default/region trio the layer report and the
/// two-clock comparison read; SamplingPoint is point 0 with sampling on.
const SimSpec SimPoints[] = {
    {"mediawiki-read", AllocatorKind::DDmalloc, false},
    {"mediawiki-read", AllocatorKind::Default, false},
    {"mediawiki-read", AllocatorKind::Region, false},
    {"sugarcrm", AllocatorKind::DDmalloc, false},
    {"sugarcrm", AllocatorKind::Default, false},
    {"sugarcrm", AllocatorKind::Region, false},
    {"mediawiki-read", AllocatorKind::DDmalloc, true},
};
constexpr size_t SamplingPoint = 6;

/// Timestamps every transaction boundary the runtime tees out of a
/// simulation: the per-transaction host time of the simulator.
class TxClock final : public TraceSink {
public:
  void event(const TraceEvent &E) override {
    if (E.Op != TraceOp::EndTx)
      return;
    Clock::time_point Now = Clock::now();
    TxSec.push_back(std::chrono::duration<double>(Now - Last).count());
    Last = Now;
  }
  void restart() { Last = Clock::now(); }
  std::vector<double> TxSec;

private:
  Clock::time_point Last = Clock::now();
};

SimulationOptions simOptions(uint64_t Seed, bool Sampling) {
  SimulationOptions O;
  O.Scale = SimScale;
  O.Seed = Seed;
  O.Sampling = Sampling;
  return O;
}

/// The counters that must repeat exactly across passes.
std::vector<double> modeledCounters(const SimPoint &P) {
  DomainEvents T = P.Events.total();
  return {P.Perf.CyclesPerTx,        P.Perf.MmCyclesPerTx,
          P.Perf.TxPerSec,           P.Perf.BusBytesPerTx,
          double(T.Instructions),    double(T.LineAccesses),
          double(T.L1DMisses),       double(T.L2Misses),
          double(T.TlbMisses),       double(T.Writebacks),
          P.MeanConsumptionBytes};
}

struct SimOutcome {
  Result R;
  /// Counters of the first pass, per point (for cross-pass checks).
  std::vector<std::vector<double>> Counters;
  std::vector<SimPoint> First;
  std::vector<std::vector<double>> HostSec; ///< Per point, per pass.
};

SimOutcome runSimulate(Context &C, double Budget) {
  SimOutcome O;
  Result &R = O.R;
  const Platform P = xeonLike();
  double SetupSec = timedSetup(C, [&] {
    SimulationOptions W = simOptions(C.Seed, false);
    W.WarmupTx = 1;
    W.MeasureTx = 1;
    simulate(*findWorkload("mediawiki-read"), AllocatorKind::DDmalloc, P,
             P.Cores, W);
  });

  const size_t NP = std::size(SimPoints);
  O.HostSec.resize(NP);
  TxClock Clk;
  std::vector<double> MeasuredTxSec;
  // Seconds at the reference speed: every point takes the speed factor of
  // a reference pass run just before it. HostSec keeps raw seconds.
  double DdSec = 0, DdRawSec = 0, DefSec = 0, AllSec = 0, Events = 0;
  uint64_t DdTx = 0, DefTx = 0, Passes = 0;
  HostSpeed Speed;
  Clock::time_point Start = Clock::now();
  do {
    for (size_t I = 0; I < NP; ++I) {
      const SimSpec &Spec = SimPoints[I];
      double Factor = Speed.sample();
      SimulationOptions Opt = simOptions(C.Seed, Spec.Sampling);
      Opt.RecordSink = &Clk;
      std::string Name = std::string("sim.") + allocatorKindName(Spec.Kind) +
                         (Spec.Sampling ? ".sampling." : ".") + Spec.Workload;
      SpanScope Span(C.T, C.T ? C.T->intern(Name) : "", "simulate", Passes);
      size_t Before = Clk.TxSec.size();
      Clk.restart();
      Clock::time_point PStart = Clock::now();
      SimPoint Pt = onShiftedStack(Passes * NP + I, [&] {
        return simulate(*findWorkload(Spec.Workload), Spec.Kind, P, P.Cores,
                        Opt);
      });
      double RawSec = secondsSince(PStart);
      double Sec = RawSec * Factor;
      uint64_t Tx = Opt.WarmupTx + Opt.MeasureTx;
      Span.Items = Tx;
      R.Attempted += Tx;
      R.check(Clk.TxSec.size() - Before == Tx,
              Name + ": simulated transactions");
      O.HostSec[I].push_back(RawSec);
      AllSec += Sec;
      DomainEvents T = Pt.Events.total();
      Events += static_cast<double>(T.Instructions + T.LineAccesses) *
                Opt.MeasureTx;
      // The first transactions of a point also carry its construction.
      if (Clk.TxSec.size() - Before == Tx)
        for (size_t T = Before + Opt.WarmupTx; T < Clk.TxSec.size(); ++T)
          MeasuredTxSec.push_back(Clk.TxSec[T] * Factor);
      if (Spec.Kind == AllocatorKind::DDmalloc && !Spec.Sampling) {
        DdSec += Sec;
        DdRawSec += RawSec;
        DdTx += Tx;
      } else if (Spec.Kind == AllocatorKind::Default) {
        DefSec += Sec;
        DefTx += Tx;
      }
      if (Passes == 0) {
        O.Counters.push_back(modeledCounters(Pt));
        O.First.push_back(Pt);
      } else {
        R.check(modeledCounters(Pt) == O.Counters[I],
                Name + ": modeled counters repeat exactly");
      }
    }
    ++Passes;
  } while (secondsSince(Start) < Budget);

  std::vector<double> Ms;
  for (double S : MeasuredTxSec)
    Ms.push_back(S * 1e3);
  R.Headline = DdTx / DdSec;
  R.add("setup_s", SetupSec, "s", "host",
        "one warm-up simulation point, median of reps");
  R.add("peak_rss_mb", peakRssMb(), "MB", "host");
  R.add("tx_per_s.ddmalloc", R.Headline, "tx/s", "host",
        "simulated transactions per host second, ddmalloc points, " +
            std::to_string(Passes) + " passes; " +
            rawNote(DdTx / DdRawSec, "tx/s", Speed.factor()));
  R.add("tx_per_s.baseline", DefTx / DefSec, "tx/s", "host",
        "same, default (Zend) points");
  R.add("events_per_s", Events / AllSec, "1/s", "host",
        "sim_events_per_s: simulated instructions + line accesses");
  R.add("p50_ms", quantile(Ms, 0.50), "ms", "host",
        "host time per measured simulated transaction, all points, " +
            sampleNote(Ms.size(), 0.5));
  R.add("p99_ms", quantile(Ms, 0.99), "ms", "host",
        sampleNote(Ms.size(), 0.99));
  R.add("sim_events_per_s", Events / AllSec, "1/s", "host",
        "same figure as events_per_s");
  R.add("modeled_tx_per_s", O.First[0].Perf.TxPerSec, "tx/s", "simulated",
        "ddmalloc on mediawiki-read, 8-core Xeon model");
  R.add("host.speed_factor", Speed.factor(), "ratio", "host",
        std::to_string(Speed.samples()) + " reference passes");
  return O;
}

//===----------------------------------------------------------------------===//
// Layer probes (traced run only).
//===----------------------------------------------------------------------===//

/// Counts and discards every event: the generator or the decoder alone.
class NullExecutor final : public TxExecutor {
public:
  void onAlloc(uint32_t, size_t) override { ++Events; }
  void onFree(uint32_t) override { ++Events; }
  void onRealloc(uint32_t, size_t, size_t) override { ++Events; }
  void onTouch(uint32_t, bool) override { ++Events; }
  void onWork(uint64_t) override { ++Events; }
  void onStateTouch(uint64_t, bool) override { ++Events; }
  uint64_t Events = 0;
};

/// workload.*: the generator alone on the first \p Tx requests of the
/// serve-php mix and seeds — the requests of one saturation segment — then
/// generator + runtime + ddmalloc on one thread (exec's residual base).
void probeWorkload(Context &C, Result &R, unsigned Tx) {
  std::vector<WorkloadSpec> Mix = phpMix();
  LoadConfig L = serveConfig(AllocatorKind::DDmalloc, C.Seed).Load;
  NullExecutor Null;
  std::vector<Rng> Rngs;
  for (unsigned W = 0; W < Mix.size(); ++W)
    Rngs.emplace_back(C.Seed, W);
  LoadGenerator G(L);
  TraceStats Total;
  double GenSec = 0;
  for (unsigned I = 0; I < Tx; ++I) {
    unsigned W = G.pickWorkload();
    SpanScope S(C.T, "workload.generate", "probe", I);
    uint64_t Before = Null.Events;
    Clock::time_point Start = Clock::now();
    Total.add(runTransaction(Mix[W], PhpScale, Rngs[W], Null));
    GenSec += secondsSince(Start);
    S.Items = Null.Events - Before;
  }
  // The same requests executed by a ddmalloc runtime, single-threaded.
  std::vector<std::unique_ptr<TransactionRuntime>> RTs;
  for (unsigned W = 0; W < Mix.size(); ++W) {
    RuntimeConfig RC;
    RC.Scale = PhpScale;
    RC.Seed = C.Seed;
    RC.RngStream = W;
    RTs.push_back(std::make_unique<TransactionRuntime>(Mix[W], RC));
  }
  LoadGenerator G2(L);
  double ExecSec = 0;
  for (unsigned I = 0; I < Tx; ++I) {
    unsigned W = G2.pickWorkload();
    SpanScope S(C.T, "runtime.execute", "probe", I);
    Clock::time_point Start = Clock::now();
    R.check(RTs[W]->executeTransaction() == TxStatus::Ok,
            "single-thread execute");
    ExecSec += secondsSince(Start);
    S.Items = 1;
  }
  uint64_t Events = Null.Events;
  double GenUs = GenSec * 1e6 / Tx;
  R.add("workload.gen_us_per_tx", GenUs, "us", "host",
        "runTransaction into a no-op executor, serve-php mix");
  R.add("workload.events_per_tx", static_cast<double>(Events) / Tx, "count",
        "exact", "must repeat exactly for a seed");
  R.add("workload.mallocs_per_tx", static_cast<double>(Total.Mallocs) / Tx,
        "count", "exact", "must repeat exactly for a seed");
  R.add("runtime.execute_us_per_tx", ExecSec * 1e6 / Tx, "us", "host",
        "generator + runtime + ddmalloc, one thread");
}

/// One allocator's direct replay of a stream: ns per malloc/free/realloc,
/// the end-of-transaction cost, and Figure 9 consumption.
struct DirectFigures {
  double NsPerOp = 0;
  double EndUsPerTx = 0;
  double ConsumptionKb = 0;
  double NsPerEvent = 0; ///< Whole replay over all events of the stream.
};

DirectFigures directReplay(Context &C, const std::string &Label,
                           AllocatorKind Kind, bool Hardened,
                           const EventStream &S, unsigned Passes, Result &R) {
  AllocatorOptions AO;
  AO.Hardening.Enabled = Hardened;
  std::unique_ptr<TxAllocator> A = createAllocator(Kind, AO);
  DirectReplayer D(S.MaxId);
  const char *OpsName = C.T ? C.T->intern("core." + Label + ".ops") : "";
  const char *EndName = C.T ? C.T->intern("core." + Label + ".end_tx") : "";
  double OpsSec = 0, EndSec = 0;
  uint64_t Ops = 0, Swept = 0, Events = 0, TxDone = 0;
  TraceStats Want;
  RunningStat Consumption;
  for (unsigned Pass = 0; Pass <= Passes; ++Pass) { // pass 0 warms up
    for (size_t Tx = 0; Tx < S.transactions(); ++Tx) {
      Clock::time_point T0 = Clock::now();
      uint64_t N;
      {
        SpanScope Sp(Pass ? C.T : nullptr, OpsName, "probe", Tx);
        N = D.replayOps(*A, S.txBegin(Tx), S.txEnd(Tx));
        Sp.Items = N;
      }
      Clock::time_point T1 = Clock::now();
      double Cons = static_cast<double>(A->memoryConsumption());
      Clock::time_point T2 = Clock::now();
      uint64_t Sw;
      {
        SpanScope Sp(Pass ? C.T : nullptr, EndName, "probe", Tx);
        Sw = D.endTransaction(*A);
        Sp.Items = 1;
      }
      Clock::time_point T3 = Clock::now();
      Want.add(S.Stats[Tx]);
      Swept += Sw;
      if (!Pass)
        continue;
      OpsSec += std::chrono::duration<double>(T1 - T0).count();
      EndSec += std::chrono::duration<double>(T3 - T2).count();
      Ops += N;
      Events += S.txEvents(Tx);
      Consumption.add(Cons);
      ++TxDone;
    }
  }
  checkCounters(*A, Want, Swept, Label + " direct replay", R);
  DirectFigures F;
  F.NsPerOp = OpsSec * 1e9 / static_cast<double>(Ops);
  F.EndUsPerTx = EndSec * 1e6 / static_cast<double>(TxDone);
  F.ConsumptionKb = Consumption.mean() / 1024.0;
  F.NsPerEvent = (OpsSec + EndSec) * 1e9 / static_cast<double>(Events);
  return F;
}

/// Decodes a recorded trace into an in-memory stream through the
/// validating replayer.
EventStream decodeTrace(const std::string &Path, Result &R) {
  EventStream S;
  StreamRecorder Rec(S);
  TraceReplayer Rp;
  if (TraceStatus St = Rp.open(Path, TraceReaderKind::Mapped); !St) {
    R.fail("decode open: " + St.describe());
    return S;
  }
  for (;;) {
    TraceStats Stats;
    if (Rp.replayTransactionInto(Rec, Stats) != TraceReplayer::Step::Tx)
      break;
    Rec.endTransaction(Stats, 0);
  }
  R.check(Rp.status().ok(), "decode status: " + Rp.status().describe());
  return S;
}

/// trace.*: the mmap decoder alone, then decode + validation into a no-op
/// executor.
void probeTrace(Context &C, const std::string &Path, unsigned Passes,
                Result &R) {
  double DecodeSec = 0, ValidateSec = 0;
  uint64_t Events = 0, VEvents = 0, Bytes = 0;
  for (unsigned Pass = 0; Pass < Passes; ++Pass) {
    MappedTraceReader M;
    if (TraceStatus S = M.open(Path); !S) {
      R.fail("mmap open: " + S.describe());
      return;
    }
    Bytes = M.fileBytes();
    {
      SpanScope Sp(C.T, "trace.decode", "probe", Pass);
      Clock::time_point Start = Clock::now();
      TraceEventSpan Span;
      TraceInput::Next N;
      while ((N = M.nextBatch(Span)) == TraceInput::Next::Event)
        Sp.Items += Span.Size;
      DecodeSec += secondsSince(Start);
      R.check(N == TraceInput::Next::End, "decode: " + M.status().describe());
      Events += Sp.Items;
    }
    TraceReplayer Rp;
    Rp.open(Path, TraceReaderKind::Mapped);
    NullExecutor Null;
    SpanScope Sp(C.T, "trace.validate", "probe", Pass);
    Clock::time_point Start = Clock::now();
    TraceStats Stats;
    while (Rp.replayTransactionInto(Null, Stats,
                                    findWorkload("rails")->AppStateBytes) ==
           TraceReplayer::Step::Tx) {
    }
    ValidateSec += secondsSince(Start);
    Sp.Items = Rp.eventsReplayed();
    VEvents += Rp.eventsReplayed();
    R.check(Rp.status().ok(), "validate: " + Rp.status().describe());
  }
  double Dec = DecodeSec * 1e9 / static_cast<double>(Events);
  R.add("trace.decode_ns_per_event", Dec, "ns", "host",
        "MappedTraceReader::nextBatch, no consumer");
  R.add("trace.validate_ns_per_event",
        ValidateSec * 1e9 / static_cast<double>(VEvents) - Dec, "ns", "host",
        "replayTransactionInto a no-op executor, minus decode");
  R.add("trace.bytes_per_event",
        static_cast<double>(Bytes) * Passes / static_cast<double>(Events),
        "B", "exact");
}

//===----------------------------------------------------------------------===//
// Output.
//===----------------------------------------------------------------------===//

void printMetric(const Metric &M) {
  std::printf("  %-34s %16.6g %-6s [%s]%s%s\n", M.Name.c_str(), M.Value,
              M.Unit.c_str(), M.Clock.c_str(), M.Note.empty() ? "" : "  ",
              M.Note.c_str());
}

/// The JSON result line: exactly the metrics named in \p Names, in order.
/// Returns the exit code: nonzero when a correctness check failed.
int emit(const Result &R, const std::vector<std::string> &Names) {
  bool Correct = R.Errors.empty() && R.Failed == 0;
  std::string Line = "{\"correct\": ";
  Line += Correct ? "true" : "false";
  Line += ", \"attempted\": " +
          std::to_string(std::max<uint64_t>(1, R.Attempted));
  Line += ", \"failed\": " + std::to_string(R.Failed);
  Line += ", \"metrics\": {";
  for (size_t I = 0; I < Names.size(); ++I) {
    Metric M{Names[I], 0, "", "", ""};
    for (const Metric &Got : R.Metrics)
      if (Got.Name == Names[I])
        M = Got;
    char Buf[64];
    std::snprintf(Buf, sizeof Buf, "%.17g", std::isfinite(M.Value) ? M.Value : 0);
    Line += (I ? ", \"" : "\"") + M.Name + "\": {\"value\": " + Buf +
            ", \"unit\": \"" + M.Unit + "\"}";
  }
  Line += "}}";
  std::printf("%s\n", Line.c_str());
  return Correct ? 0 : 1;
}

} // namespace

//===----------------------------------------------------------------------===//
// The two runs.
//===----------------------------------------------------------------------===//

namespace {

const char *const Workloads[] = {"serve-php", "alloc-php", "replay-ruby",
                                 "simulate"};

/// Everything the end-to-end and layer reports need from one workload.
struct WorkloadRun {
  Result R;
  EventStream PhpStream;
  std::string TracePath;
  TraceStats Recorded;
  SimOutcome Sim;
};

void runWorkload(Context &C, const std::string &Name, double Budget,
                 WorkloadRun &W) {
  if (Name == "serve-php")
    W.R = runServePhp(C, Budget);
  else if (Name == "alloc-php")
    W.R = runAllocPhp(C, Budget, W.PhpStream);
  else if (Name == "replay-ruby")
    W.R = runReplayRuby(C, Budget, W.TracePath, W.Recorded);
  else {
    W.Sim = runSimulate(C, Budget);
    W.R = W.Sim.R;
  }
}

void printResult(const std::string &Title, const Result &R) {
  std::printf("%s\n", Title.c_str());
  for (const Metric &M : R.Metrics)
    printMetric(M);
  double FailRatio = R.Attempted ? double(R.Failed) / double(R.Attempted) : 0;
  std::printf("  %-34s %16.6g %-6s [exact]  %llu of %llu\n", "fail_ratio",
              FailRatio, "ratio", static_cast<unsigned long long>(R.Failed),
              static_cast<unsigned long long>(R.Attempted));
  for (const std::string &E : R.Errors)
    std::printf("  ERROR: %s\n", E.c_str());
}

void merge(Result &Into, const Result &From) {
  Into.Attempted += From.Attempted;
  Into.Failed += From.Failed;
  Into.Errors.insert(Into.Errors.end(), From.Errors.begin(), From.Errors.end());
}


/// The traced run: the selected workload untraced and traced with equal
/// budgets, then every other workload and the probes traced, so each
/// layer's figures come from the workload that exercises it. Prints the
/// per-layer metrics and writes the spans.
int layerProfile(Context &C, const std::string &Workload, double Seconds) {
  Tracer T;
  Result Layers;
  std::map<std::string, WorkloadRun> Runs;
  C.SetupReps = 1;
  // A quarter of the window each for the selected workload's untraced and
  // traced passes, a sixteenth for each other workload: the traced run
  // stays about as long as an untraced one plus the probes.
  double Share = Seconds / 4;
  double Minor = std::max(1.0, Seconds / 16);
  {
    WorkloadRun Plain;
    runWorkload(C, Workload, Share, Plain);
    if (!Plain.TracePath.empty())
      std::filesystem::remove(Plain.TracePath);
    merge(Layers, Plain.R);
    C.T = &T;
    WorkloadRun &Traced = Runs[Workload];
    runWorkload(C, Workload, Share, Traced);
    Layers.check(Plain.Sim.Counters == Traced.Sim.Counters,
                 "modeled counters equal across untraced and traced passes");
    Layers.add("bench.tracing_overhead_pct",
               (Plain.R.Headline / Traced.R.Headline - 1.0) * 100.0, "%",
               "host",
               Workload + " tx_per_s.ddmalloc, untraced vs traced");
    Layers.add("host.speed_factor", Traced.R.get("host.speed_factor"),
               "ratio", "host",
               Workload + " traced pass; the other per-layer host-clock "
                          "figures are raw wall time");
  }
  for (const char *Name : Workloads)
    if (!Runs.count(Name))
      runWorkload(C, Name, Minor, Runs[Name]);
  // Each workload's per-configuration figures, from the traced passes
  // (their untraced values are in that workload's own report).
  const std::map<std::string, std::vector<std::string>> Scoped = {
      {"alloc-php",
       {"tx_per_s.default", "tx_per_s.adaptive", "tx_per_s.ddmalloc-hardened"}},
      {"replay-ruby", {"tx_per_s.glibc", "tx_per_s.tcmalloc", "tx_per_s.hoard"}},
      {"simulate", {"modeled_tx_per_s"}},
  };
  for (auto &[Name, W] : Runs) {
    merge(Layers, W.R);
    printResult(Name + " (traced)", W.R);
    auto It = Scoped.find(Name);
    if (It == Scoped.end())
      continue;
    for (const std::string &N : It->second)
      for (const Metric &M : W.R.Metrics)
        if (M.Name == N)
          Layers.add(Name + "." + N, M.Value, M.Unit, M.Clock, M.Note);
  }

  // Probes on the streams the workloads built.
  probeWorkload(C, Layers, ServeSegmentTx);
  const EventStream &Php = Runs["alloc-php"].PhpStream;
  EventStream Ruby = decodeTrace(Runs["replay-ruby"].TracePath, Layers);
  probeTrace(C, Runs["replay-ruby"].TracePath, 2, Layers);
  std::filesystem::remove(Runs["replay-ruby"].TracePath);

  struct CoreKind {
    AllocatorKind Kind;
    const EventStream *S;
  };
  const CoreKind Kinds[] = {
      {AllocatorKind::DDmalloc, &Php}, {AllocatorKind::Region, &Php},
      {AllocatorKind::Obstack, &Php},  {AllocatorKind::Default, &Php},
      {AllocatorKind::Glibc, &Ruby},   {AllocatorKind::TCMalloc, &Ruby},
      {AllocatorKind::Hoard, &Ruby},   {AllocatorKind::Slab, &Ruby},
      {AllocatorKind::Adaptive, &Php},
  };
  std::map<AllocatorKind, DirectFigures> Core;
  for (const CoreKind &K : Kinds) {
    std::string N = allocatorKindName(K.Kind);
    DirectFigures F = directReplay(C, N, K.Kind, false, *K.S, 2, Layers);
    Core[K.Kind] = F;
    Layers.add("core." + N + ".ns_per_op", F.NsPerOp, "ns", "host",
               K.S == &Php ? "alloc-php stream" : "replay-ruby stream");
    Layers.add("core." + N + ".freeall_us_per_tx", F.EndUsPerTx, "us", "host",
               allocatorSupportsBulkFree(K.Kind) ? "freeAll"
                                                 : "end-of-transaction sweep");
    Layers.add("core." + N + ".consumption_kb", F.ConsumptionKb, "KiB",
               "exact", "Figure 9, sampled at transaction end");
  }
  DirectFigures H = directReplay(C, "ddmalloc-hardened",
                                 AllocatorKind::DDmalloc, true, Php, 2, Layers);
  Layers.add("hardening.ddmalloc.extra_ns_per_op",
             H.NsPerOp - Core[AllocatorKind::DDmalloc].NsPerOp, "ns", "host",
             "hardened minus plain direct replay");
  Layers.add("hardening.ddmalloc.consumption_kb", H.ConsumptionKb, "KiB",
             "exact");

  // runtime self time: the traced alloc-php ddmalloc replay (runtime +
  // allocator) minus the direct replay of the same stream.
  Tracer::Layer RtL = T.layer("runtime.replay.ddmalloc");
  Layers.add("runtime.self_ns_per_event",
             RtL.Sec * 1e9 / static_cast<double>(RtL.Items) -
                 Core[AllocatorKind::DDmalloc].NsPerEvent,
             "ns", "host", "runtime replay minus direct replay, ddmalloc");

  // exec residual: what two workers spend per transaction beyond the
  // generator and the single-thread runtime + allocator.
  const Result &Serve = Runs["serve-php"].R;
  Layers.add("exec.residual_us_per_tx",
             Serve.get("exec.busy_us_per_tx") -
                 Layers.get("runtime.execute_us_per_tx"),
             "us", "host", "threads x wall / completed minus single-thread");
  for (const char *N : {"exec.queue_max_depth", "exec.thread_imbalance",
                        "server.offered_rate_ratio"})
    for (const Metric &M : Serve.Metrics)
      if (M.Name == N)
        Layers.Metrics.push_back(M);

  // The machine model's counters and host time per point (mediawiki-read).
  const SimOutcome &Sim = Runs["simulate"].Sim;
  const AllocatorKind SimKinds[] = {AllocatorKind::DDmalloc,
                                    AllocatorKind::Default,
                                    AllocatorKind::Region};
  std::vector<double> MmCycles, NsPerOp;
  for (size_t I = 0; I < std::size(SimKinds); ++I) {
    const SimPoint &Pt = Sim.First[I];
    std::string N = std::string("sim.") + allocatorKindName(SimKinds[I]);
    Layers.add(N + ".cycles_per_tx", Pt.Perf.CyclesPerTx, "cycles",
               "simulated", "mediawiki-read");
    Layers.add(N + ".mm_cycles_per_tx", Pt.Perf.MmCyclesPerTx, "cycles",
               "simulated");
    Layers.add(N + ".l2_misses_per_tx",
               static_cast<double>(Pt.Events.total().L2Misses), "count",
               "simulated");
    Layers.add(N + ".bus_bytes_per_tx", Pt.Perf.BusBytesPerTx, "B",
               "simulated");
    Layers.add(N + ".host_ms", median(Sim.HostSec[I]) * 1e3, "ms", "host");
    MmCycles.push_back(Pt.Perf.MmCyclesPerTx);
    NsPerOp.push_back(Core[SimKinds[I]].NsPerOp);
  }
  std::vector<double> Ratio;
  for (size_t P = 0; P < Sim.HostSec[SamplingPoint].size(); ++P)
    Ratio.push_back(Sim.HostSec[SamplingPoint][P] / Sim.HostSec[0][P]);
  Layers.add("sampling.overhead_pct", (median(Ratio) - 1.0) * 100.0, "%",
             "host", "sampling-on point over its sampling-off twin");
  double Rho = rankAgreement(MmCycles, NsPerOp);
  // Host clock: ns_per_op is wall time, and with three allocators rho only
  // takes the values -1, -0.5, 0.5 and 1, so one noisy rank flips it.
  Layers.add("clocks.rank_agreement", Rho, "rho", "host",
             "Spearman: sim mm_cycles_per_tx vs core ns_per_op");

  std::printf("\nTwo clocks (mediawiki-read / alloc-php stream):\n");
  std::printf("  %-10s %18s %14s\n", "allocator", "sim mm_cycles/tx",
              "core ns/op");
  for (size_t I = 0; I < std::size(SimKinds); ++I)
    std::printf("  %-10s %18.0f %14.2f\n", allocatorKindName(SimKinds[I]),
                MmCycles[I], NsPerOp[I]);
  std::printf("  rank agreement (Spearman) %.2f%s\n", Rho,
              Rho < 1.0 ? "  -- FINDING: the two clocks rank the allocators "
                          "differently"
                        : "");

  std::string SpanPath = C.WorkDir + "/spans-" + Workload + "-" +
                         std::to_string(C.Seed) + ".json";
  Layers.check(T.write(SpanPath), "writing spans to " + SpanPath);
  std::printf("\nspans: %zu written to %s\n", T.size(), SpanPath.c_str());

  printResult("layers", Layers);
  std::vector<std::string> Names;
  for (const Metric &M : Layers.Metrics)
    Names.push_back(M.Name);
  return emit(Layers, Names);
}

} // namespace

static __attribute__((noinline)) int benchMain(int Argc, char **Argv) {
  std::string Workload, WorkDir = ".", Corrupt;
  uint64_t Seed = 1;
  double Seconds = 10;
  int Trace = 0;
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string Flag = Argv[I], Val = Argv[I + 1];
    char *End = nullptr;
    if (Flag == "--workload")
      Workload = Val;
    else if (Flag == "--seed")
      Seed = std::strtoull(Val.c_str(), &End, 10);
    else if (Flag == "--seconds")
      Seconds = std::strtod(Val.c_str(), &End);
    else if (Flag == "--trace")
      Trace = static_cast<int>(std::strtol(Val.c_str(), &End, 10));
    else if (Flag == "--work-dir")
      WorkDir = Val;
    else if (Flag == "--corrupt-trace")
      Corrupt = Val;
    else {
      std::fprintf(stderr, "error: unknown flag %s\n", Flag.c_str());
      return 2;
    }
    if (End && *End) {
      std::fprintf(stderr, "error: invalid value for %s: %s\n", Flag.c_str(),
                   Val.c_str());
      return 2;
    }
  }
  if (std::find(std::begin(Workloads), std::end(Workloads), Workload) ==
          std::end(Workloads) ||
      !(Seconds > 0) || (Trace != 0 && Trace != 1) ||
      (!Corrupt.empty() && Corrupt != "truncate" && Corrupt != "flip")) {
    std::fprintf(stderr,
                 "usage: ddm_perfbench --workload "
                 "serve-php|alloc-php|replay-ruby|simulate --seed N "
                 "--seconds S --trace 0|1 [--work-dir DIR] "
                 "[--corrupt-trace truncate|flip]\n");
    return 2;
  }
  std::filesystem::create_directories(WorkDir);
  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              Workload.c_str(), static_cast<unsigned long long>(Seed),
              Seconds, Trace);

  Context C;
  C.Seed = Seed;
  C.WorkDir = WorkDir;
  C.Corrupt = Corrupt;

  if (Trace)
    return layerProfile(C, Workload, Seconds);
  WorkloadRun W;
  runWorkload(C, Workload, Seconds, W);
  if (!W.TracePath.empty())
    std::filesystem::remove(W.TracePath);
  printResult(Workload + " (untraced)", W.R);
  return emit(W.R, {"setup_s", "peak_rss_mb", "tx_per_s.ddmalloc",
                    "tx_per_s.baseline", "events_per_s", "p50_ms", "p99_ms"});
}

/// ASLR starts the stack at a random offset within its page; moving down
/// by that offset gives every process the same stack layout (see
/// onShiftedStack).
int main(int Argc, char **Argv) {
  char Probe = 0;
  size_t Offset = reinterpret_cast<uintptr_t>(&Probe) % 4096;
  volatile char *Pad = static_cast<char *>(alloca(Offset + 16));
  Pad[0] = Probe;
  int Code = benchMain(Argc, Argv);
  Pad[Offset] = 0;
  return Code;
}
