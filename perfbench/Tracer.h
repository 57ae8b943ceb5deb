//===- perfbench/Tracer.h - In-memory spans for the traced run -*- C++ -*-===//
///
/// \file
/// The benchmark's tracing: spans recorded around the calls the benchmark
/// makes into each layer of the library, kept in memory and written once
/// at the end of the run as Chrome trace-event JSON (viewable offline in
/// Perfetto or chrome://tracing).
///
/// Spans are recorded at the level of phases and transactions, never per
/// allocator call: each span carries the number of items (events,
/// operations, transactions) it covered, so a layer's cost per item is its
/// summed time over its summed items. A layer's self time is its duration
/// minus the time its child spans cover.
///
/// Every entry point accepts a null Tracer; the untraced run passes null
/// and pays one predicted branch per span site.
///
//===----------------------------------------------------------------------===//

#ifndef DDM_PERFBENCH_TRACER_H
#define DDM_PERFBENCH_TRACER_H

#include <chrono>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point Start) {
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

class Tracer {
public:
  struct Span {
    const char *Name;
    const char *Phase;
    int64_t Tx;     ///< Transaction index within the phase, -1 for none.
    int32_t Parent; ///< Index of the enclosing span, -1 at top level.
    uint64_t StartNs = 0;
    uint64_t DurNs = 0;
    uint64_t Items = 0;
  };

  /// Summed figures of every span sharing one name.
  struct Layer {
    uint64_t Spans = 0;
    uint64_t Items = 0;
    double Sec = 0;
    double SelfSec = 0;
  };

  Tracer() : Origin(Clock::now()) {}

  /// Interns \p S so spans can hold a stable pointer to it.
  const char *intern(const std::string &S) {
    return Strings.insert(S).first->c_str();
  }

  /// Opens a span nested in the innermost open one; returns its index.
  int32_t begin(const char *Name, const char *Phase, int64_t Tx) {
    Span S{Name, Phase, Tx, Open.empty() ? -1 : Open.back()};
    S.StartNs = nowNs();
    Spans.push_back(S);
    Open.push_back(static_cast<int32_t>(Spans.size() - 1));
    return Open.back();
  }

  /// Closes the innermost span, which must be \p Index.
  void end(int32_t Index, uint64_t Items) {
    Span &S = Spans[Index];
    S.DurNs = nowNs() - S.StartNs;
    S.Items = Items;
    Open.pop_back();
  }

  /// Per-name sums over all closed spans, with self time.
  std::map<std::string, Layer> layers() const;

  /// The summed figures of one span name (zeros if none was recorded).
  Layer layer(const std::string &Name) const;

  /// Writes all spans as Chrome trace-event JSON. Returns false on an
  /// I/O error.
  bool write(const std::string &Path) const;

  size_t size() const { return Spans.size(); }

private:
  uint64_t nowNs() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             Origin)
            .count());
  }

  Clock::time_point Origin;
  std::vector<Span> Spans;
  std::vector<int32_t> Open;
  std::set<std::string> Strings;
};

/// RAII span; a no-op when the tracer is null. Set Items before the scope
/// ends.
class SpanScope {
public:
  SpanScope(Tracer *T, const char *Name, const char *Phase, int64_t Tx = -1)
      : T(T), Index(T ? T->begin(Name, Phase, Tx) : -1) {}
  ~SpanScope() {
    if (T)
      T->end(Index, Items);
  }
  SpanScope(const SpanScope &) = delete;
  SpanScope &operator=(const SpanScope &) = delete;

  uint64_t Items = 0;

private:
  Tracer *T;
  int32_t Index;
};

} // namespace perfbench

#endif // DDM_PERFBENCH_TRACER_H
