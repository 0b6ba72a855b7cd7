/**
 * @file
 * Determinism regression suite: the same campaign must serialize to
 * exactly the same bytes whether it ran serially, on eight workers, on
 * a repeated fresh runner, or out of the result cache. This is the
 * property that lets golden-value artifacts guard the paper's tables —
 * any scheduling-dependent behaviour in the runner or the machine
 * models shows up here as a byte diff.
 * Journals and RunnerOptions::onCell streams are held to the same
 * bytes, released in spec order at any worker count.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "runner/artifacts.hh"
#include "runner/campaign.hh"
#include "runner/journal.hh"
#include "runner/runner.hh"

using namespace simalpha;
using namespace simalpha::runner;

namespace {

/**
 * The Table 2 microbenchmark campaign on a validated-simulator pair,
 * instruction-capped so three full executions stay test-suite fast.
 */
CampaignSpec
determinismCampaign()
{
    return table2Campaign({"sim-alpha", "sim-outorder"})
        .withMaxInsts(10000);
}

std::string
runToJson(int jobs)
{
    ExperimentRunner runner({jobs, true});
    return toJson(runner.run(determinismCampaign()));
}

} // namespace

TEST(RunnerDeterminism, SerialVsEightWorkersByteIdentical)
{
    std::string serial = runToJson(1);
    std::string parallel = runToJson(8);
    ASSERT_FALSE(serial.empty());
    EXPECT_EQ(serial, parallel);
}

TEST(RunnerDeterminism, RepeatedRunsByteIdentical)
{
    std::string first = runToJson(8);
    std::string second = runToJson(8);
    EXPECT_EQ(first, second);

    // CSV artifacts are canonical too.
    ExperimentRunner a({8, true}), b({8, true});
    EXPECT_EQ(toCsv(a.run(determinismCampaign())),
              toCsv(b.run(determinismCampaign())));
}

TEST(RunnerDeterminism, CacheHitsSerializeIdentically)
{
    CampaignSpec spec = determinismCampaign();
    ExperimentRunner runner({8, true});

    CampaignResult computed = runner.run(spec);
    EXPECT_EQ(runner.cacheHits(), 0u);

    CampaignResult cached = runner.run(spec);
    EXPECT_EQ(runner.cacheHits(), spec.cells.size());
    for (const CellResult &r : cached.cells)
        EXPECT_TRUE(r.fromCache) << r.cell.workload;

    EXPECT_EQ(toJson(computed), toJson(cached));
    EXPECT_TRUE(diffCampaigns(computed, cached).empty());
}

TEST(RunnerDeterminism, ParallelMatchesSerialCellByCell)
{
    CampaignSpec spec = determinismCampaign();
    ExperimentRunner serial({1, true});
    ExperimentRunner parallel({8, true});

    CampaignResult a = serial.run(spec);
    CampaignResult b = parallel.run(spec);

    auto diffs = diffCampaigns(a, b);
    for (const CellDiff &d : diffs)
        ADD_FAILURE() << d.machine << "/" << d.workload << " "
                      << d.field << ": " << d.a << " vs " << d.b;
    ASSERT_EQ(a.cells.size(), b.cells.size());
    for (std::size_t i = 0; i < a.cells.size(); i++) {
        EXPECT_EQ(a.cells[i].cycles, b.cells[i].cycles);
        EXPECT_EQ(a.cells[i].counters, b.cells[i].counters);
        EXPECT_EQ(a.cells[i].seed, b.cells[i].seed);
        EXPECT_EQ(a.cells[i].manifestHash, b.cells[i].manifestHash);
    }
}

// ---------------------------------------------------------------------
// Release order: journals and onCell streams are spec-ordered
// ---------------------------------------------------------------------

namespace {

std::string
journalPathFor(const std::string &stem)
{
    return testing::TempDir() + "determinism-" + stem + "-" +
           std::to_string(::getpid()) + ".jsonl";
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/** A journaled run's journal bytes and, in call order, the journal
 *  line of every onCell call, one per line. */
struct Released
{
    std::string journal;
    std::string onCell;
};

Released
journaledRun(int jobs, const std::string &path, bool resume = false)
{
    const CampaignSpec spec = determinismCampaign();
    Released out;
    RunnerOptions ro;
    ro.jobs = jobs;
    ro.journalPath = path;
    ro.resume = resume;
    ro.onCell = [&](const CellResult &r) {
        out.onCell += journalLine(spec.name, r) + "\n";
    };
    ExperimentRunner(ro).run(spec);
    out.journal = slurp(path);
    return out;
}

} // namespace

TEST(RunnerDeterminism, FourWorkersJournalAndOnCellLikeOne)
{
    const std::string a = journalPathFor("one"), b = journalPathFor("four");
    std::remove(a.c_str());
    std::remove(b.c_str());
    const Released serial = journaledRun(1, a);
    const Released parallel = journaledRun(4, b);
    ASSERT_FALSE(serial.journal.empty());
    EXPECT_EQ(serial.journal, parallel.journal);
    EXPECT_EQ(serial.onCell, parallel.onCell);
    // onCell hands over exactly the journal's lines, in its order.
    EXPECT_EQ(parallel.onCell, parallel.journal);
    std::remove(a.c_str());
    std::remove(b.c_str());
}

TEST(RunnerDeterminism, SerialOnCellRunsOnTheCallingThread)
{
    // Half the journal replays on resume, half is computed: both kinds
    // of cell fire on the thread that called run(), in spec order.
    const std::string path = journalPathFor("caller");
    std::remove(path.c_str());
    const std::string full = journaledRun(1, path).journal;
    std::istringstream lines(full);
    std::string half, line;
    for (int i = 0; i < 20 && std::getline(lines, line); i++)
        half += line + "\n";
    std::ofstream(path, std::ios::binary | std::ios::trunc) << half;

    const CampaignSpec spec = determinismCampaign();
    const std::thread::id caller = std::this_thread::get_id();
    std::size_t calls = 0, elsewhere = 0, replayed = 0;
    RunnerOptions ro;
    ro.jobs = 1;
    ro.journalPath = path;
    ro.resume = true;
    ro.onCell = [&](const CellResult &r) {
        calls++;
        replayed += r.fromJournal;
        elsewhere += std::this_thread::get_id() != caller;
    };
    ExperimentRunner(ro).run(spec);
    EXPECT_EQ(calls, spec.cells.size());
    EXPECT_EQ(replayed, 20u);
    EXPECT_EQ(elsewhere, 0u);
    EXPECT_EQ(slurp(path), full);
    std::remove(path.c_str());
}
