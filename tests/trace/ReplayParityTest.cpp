//===- tests/trace/ReplayParityTest.cpp - Corpus replay parity ------------===//
///
/// Every checked-in trace (traces/*.ddmtrc and traces/synth/*.ddmtrc)
/// replays into a TransactionRuntime identically through both replay
/// entry points — replayTransactionInto on a TxExecutor& and
/// replayTransaction on the concrete runtime — with both readers, and
/// replays cleanly to the end.
///
//===----------------------------------------------------------------------===//

#include "ReplayParity.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>

using namespace ddm;

namespace {

std::vector<std::string> corpusTraces() {
  std::vector<std::string> Paths;
  for (const char *Dir : {DDM_TRACES_DIR, DDM_TRACES_DIR "/synth"})
    for (const auto &Entry : std::filesystem::directory_iterator(Dir))
      if (Entry.path().extension() == TraceFileSuffix)
        Paths.push_back(Entry.path().string());
  std::sort(Paths.begin(), Paths.end());
  return Paths;
}

} // namespace

TEST(ReplayParityTest, CorpusReplaysIdenticallyThroughBothEntryPoints) {
  std::vector<std::string> Paths = corpusTraces();
  // The eight workload traces plus the synthetic fleet shards.
  ASSERT_GE(Paths.size(), 9u);
  for (const std::string &Path : Paths) {
    TraceReplayer Probe;
    ASSERT_TRUE(Probe.open(Path).ok()) << Path;
    // The synthesized fleet shards name no known workload; 16 MB of state
    // covers every corpus workload they were synthesized from.
    const WorkloadSpec *Spec = Probe.workload();
    uint64_t StateBytes = Spec ? Spec->AppStateBytes : 16ull * 1024 * 1024;

    expectReplayParity(Path, StateBytes);
    ReplayOutcome Inline = replayThroughRuntime(
        Path, StateBytes, TraceReaderKind::Auto, /*Concrete=*/true);
    EXPECT_EQ(Inline.Step, TraceReplayer::Step::End) << Path;
    EXPECT_TRUE(Inline.Status.ok()) << Path << ": " << Inline.Status.describe();
    EXPECT_GT(Inline.RuntimeTransactions, 0u) << Path;
  }
}
