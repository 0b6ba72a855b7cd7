/**
 * @file
 * End-to-end process-isolation suite (`ctest -L proc`), driving real
 * `simalpha --shard` worker processes (SIMALPHA_BIN points at the
 * built binary).
 *
 * The headline properties, mirroring the PR acceptance criteria:
 *  - a fault-free sharded campaign merges byte-identical to an
 *    in-process run;
 *  - an injected segfault / abort / hang in one cell completes the
 *    campaign with that cell reported under its crash/timeout error
 *    class and every other cell byte-identical to a fault-free run —
 *    the exact faults that take the whole in-process runner down;
 *  - the supervisor's master journal makes crashed campaigns
 *    resumable; and
 *  - SIGTERM makes the whole tree exit with the distinct code 3.
 */

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "common/error.hh"
#include "runner/artifacts.hh"
#include "runner/campaign.hh"
#include "runner/journal.hh"
#include "runner/runner.hh"
#include "runner/supervisor.hh"

using namespace simalpha;
using namespace simalpha::runner;

namespace fs = std::filesystem;

namespace {

/** Removes its paths (files or directory trees) when the test's scope
 *  ends, also when a fatal assertion returns early, so a test leaves
 *  nothing in the temp directory. */
struct RemoveOnExit
{
    std::vector<std::string> paths;
    ~RemoveOnExit()
    {
        std::error_code ec;
        for (const std::string &path : paths)
            fs::remove_all(path, ec);
    }
};

std::string
uniquePath(const std::string &stem)
{
    return testing::TempDir() + "simalpha-super-" + stem + "-" +
           std::to_string(::getpid()) + ".jsonl";
}

/** Baseline options: supervise the smoke campaign with the real
 *  binary, journaling into @p journal. */
LaunchOptions
smokeOptions(const std::string &journal, int shards = 3)
{
    LaunchOptions opts;
    opts.campaign = "smoke";
    opts.shards = shards;
    opts.workerBinary = SIMALPHA_BIN;
    opts.journalPath = journal;
    opts.backoffSeconds = 0.01;     // keep respawn drills fast
    return opts;
}

/** Remove the master journal and any retained post-mortem scratch. */
void
cleanup(const std::string &journal, const LaunchOutcome &outcome)
{
    if (!outcome.scratchRetained.empty())
        std::system(
            ("rm -rf '" + outcome.scratchRetained + "'").c_str());
    std::remove(journal.c_str());
}

/** The campaign minus one cell, for surviving-cell byte comparisons. */
CampaignResult
without(const CampaignResult &result, std::size_t index)
{
    CampaignResult out = result;
    out.cells.erase(out.cells.begin() + long(index));
    return out;
}

/** The fault-free in-process reference run of the smoke campaign. */
std::string
inProcessReference()
{
    RunnerOptions ro;
    ro.jobs = 1;
    ro.cache = false;
    return toJson(ExperimentRunner(ro).run(smokeCampaign()));
}

} // namespace

// ---------------------------------------------------------------------
// Fault-free: sharded == in-process, byte for byte
// ---------------------------------------------------------------------

TEST(Supervisor, FaultFreeShardedRunIsByteIdenticalToInProcess)
{
    std::string journal = uniquePath("clean");
    std::remove(journal.c_str());
    LaunchOutcome outcome =
        superviseCampaign(smokeOptions(journal));

    EXPECT_FALSE(outcome.interrupted);
    EXPECT_EQ(outcome.crashedCells, 0u);
    EXPECT_EQ(outcome.timedOutCells, 0u);
    EXPECT_EQ(outcome.spawns, 3);
    EXPECT_EQ(outcome.respawns, 0);
    EXPECT_TRUE(outcome.scratchRetained.empty());
    EXPECT_EQ(outcome.result.okCount(), 12u);
    EXPECT_EQ(toJson(outcome.result), inProcessReference());
    cleanup(journal, outcome);
}

// ---------------------------------------------------------------------
// Crash containment: the faults the in-process runner cannot survive
// ---------------------------------------------------------------------

TEST(Supervisor, InjectedSegfaultIsContainedToItsCell)
{
    std::string journal = uniquePath("segv");
    std::remove(journal.c_str());
    constexpr std::size_t kPoison = 4;

    LaunchOptions opts = smokeOptions(journal);
    opts.faults.push_back(
        {kPoison, FaultInjection::Kind::Segfault, -1});
    LaunchOutcome outcome = superviseCampaign(opts);

    EXPECT_EQ(outcome.crashedCells, 1u);
    EXPECT_EQ(outcome.respawns, 1);
    const CellResult &poison = outcome.result.cells[kPoison];
    EXPECT_FALSE(poison.ok);
    EXPECT_EQ(poison.errorClass, "crash");
    EXPECT_NE(poison.error.find("signal 11"), std::string::npos)
        << poison.error;

    // Every surviving cell is byte-identical to a fault-free run.
    RunnerOptions ro;
    ro.jobs = 1;
    ro.cache = false;
    CampaignResult clean = ExperimentRunner(ro).run(smokeCampaign());
    EXPECT_EQ(toJson(without(outcome.result, kPoison)),
              toJson(without(clean, kPoison)));
    cleanup(journal, outcome);
}

TEST(Supervisor, InjectedAbortIsContainedToItsCell)
{
    std::string journal = uniquePath("abort");
    std::remove(journal.c_str());
    LaunchOptions opts = smokeOptions(journal);
    opts.faults.push_back({7, FaultInjection::Kind::Abort, -1});
    LaunchOutcome outcome = superviseCampaign(opts);

    EXPECT_EQ(outcome.crashedCells, 1u);
    const CellResult &poison = outcome.result.cells[7];
    EXPECT_FALSE(poison.ok);
    EXPECT_EQ(poison.errorClass, "crash");
    EXPECT_NE(poison.error.find("signal 6"), std::string::npos)
        << poison.error;
    EXPECT_EQ(outcome.result.okCount(), 11u);
    cleanup(journal, outcome);
}

TEST(Supervisor, HangIsKilledByCellTimeoutAndShardRecovers)
{
    std::string journal = uniquePath("hang");
    std::remove(journal.c_str());
    constexpr std::size_t kPoison = 3;

    LaunchOptions opts = smokeOptions(journal, /*shards=*/2);
    opts.cellTimeout = 0.5;
    opts.faults.push_back({kPoison, FaultInjection::Kind::Hang, -1});
    LaunchOutcome outcome = superviseCampaign(opts);

    EXPECT_EQ(outcome.timedOutCells, 1u);
    EXPECT_EQ(outcome.crashedCells, 0u);
    const CellResult &poison = outcome.result.cells[kPoison];
    EXPECT_FALSE(poison.ok);
    EXPECT_EQ(poison.errorClass, "timeout");
    EXPECT_NE(poison.error.find("wall-clock timeout"),
              std::string::npos)
        << poison.error;

    // The hanging cell's shard was respawned and finished the rest of
    // its slice: only the poison cell is lost.
    EXPECT_EQ(outcome.respawns, 1);
    EXPECT_EQ(outcome.result.okCount(), 11u);
    cleanup(journal, outcome);
}

TEST(Supervisor, RespawnBudgetExhaustedGivesUpOnRemainingCells)
{
    std::string journal = uniquePath("giveup");
    std::remove(journal.c_str());

    // One shard, segfaults at cells 0, 4 and 8: three worker deaths
    // burn the default respawn budget (2), so the cells after the
    // third poison are given up, not retried forever.
    LaunchOptions opts = smokeOptions(journal, /*shards=*/1);
    for (std::size_t cell : {std::size_t(0), std::size_t(4),
                             std::size_t(8)})
        opts.faults.push_back(
            {cell, FaultInjection::Kind::Segfault, -1});
    LaunchOutcome outcome = superviseCampaign(opts);

    EXPECT_EQ(outcome.spawns, 3);       // initial + 2 respawns
    EXPECT_EQ(outcome.respawns, 2);
    EXPECT_EQ(outcome.result.okCount(), 6u);
    EXPECT_EQ(outcome.crashedCells, 6u);

    std::size_t givenUp = 0;
    for (const CellResult &r : outcome.result.cells)
        if (!r.ok && r.error.find("giving up") != std::string::npos)
            givenUp++;
    EXPECT_EQ(givenUp, 3u);     // cells 9..11, never attempted
    cleanup(journal, outcome);
}

// ---------------------------------------------------------------------
// Master journal: crash results are replayable
// ---------------------------------------------------------------------

TEST(Supervisor, ResumeReplaysCrashedCellsFromMasterJournal)
{
    std::string journal = uniquePath("resume");
    std::remove(journal.c_str());

    LaunchOptions faulty = smokeOptions(journal);
    faulty.faults.push_back({5, FaultInjection::Kind::Segfault, -1});
    LaunchOutcome first = superviseCampaign(faulty);
    EXPECT_EQ(first.crashedCells, 1u);
    std::string firstJson = toJson(first.result);

    // Resuming without the fault plan must replay the recorded crash,
    // not silently heal it — and touch no worker at all.
    LaunchOptions resuming = smokeOptions(journal);
    resuming.resume = true;
    LaunchOutcome second = superviseCampaign(resuming);
    EXPECT_EQ(second.replayedCells, 12u);
    EXPECT_EQ(second.spawns, 0);
    EXPECT_FALSE(second.result.cells[5].ok);
    EXPECT_EQ(second.result.cells[5].errorClass, "crash");
    EXPECT_EQ(toJson(second.result), firstJson);

    cleanup(journal, first);
    cleanup(journal, second);
}

// ---------------------------------------------------------------------
// Option validation
// ---------------------------------------------------------------------

TEST(Supervisor, InjectedPanicLineMatchesTheInProcessRun)
{
    // Each worker runs its slice as a spec of its own, yet the failed
    // cell's message names its campaign index, so its artifact line,
    // like the rest of the artifact, is the one a --jobs 1 run writes.
    FaultInjection panic;
    panic.cellIndex = 7;
    panic.kind = FaultInjection::Kind::Panic;

    RunnerOptions ro;
    ro.jobs = 1;
    ro.cache = false;
    ro.faults = {panic};
    CampaignResult direct = ExperimentRunner(ro).run(smokeCampaign());
    ASSERT_FALSE(direct.cells[7].ok);
    EXPECT_EQ(direct.cells[7].error, "injected panic (cell 7, attempt 1)");

    std::string journal = uniquePath("panic-line");
    std::remove(journal.c_str());
    LaunchOptions opts = smokeOptions(journal);
    opts.faults = {panic};
    LaunchOutcome outcome = superviseCampaign(opts);
    cleanup(journal, outcome);
    ASSERT_EQ(outcome.result.cells.size(), direct.cells.size());
    EXPECT_EQ(journalLine("smoke", outcome.result.cells[7]),
              journalLine("smoke", direct.cells[7]));
    EXPECT_EQ(toJson(outcome.result), toJson(direct));
}

TEST(Supervisor, UnusableOptionsThrowConfigError)
{
    LaunchOptions unknown = smokeOptions(uniquePath("opts"));
    unknown.campaign = "table99";
    EXPECT_THROW(superviseCampaign(unknown), ConfigError);

    LaunchOptions nobinary = smokeOptions(uniquePath("opts"));
    nobinary.workerBinary = "/no/such/simalpha";
    EXPECT_THROW(superviseCampaign(nobinary), ConfigError);
}

// ---------------------------------------------------------------------
// The CLI, end to end: the acceptance drill
// ---------------------------------------------------------------------

TEST(SupervisorCli, ThreadModeDiesWhereProcessModeCompletes)
{
    std::string out = testing::TempDir() + "simalpha-cli-" +
                      std::to_string(::getpid()) + ".json";
    std::string bin = SIMALPHA_BIN;
    // Both runs' artifacts, journals, scratch directories and
    // summaries.
    RemoveOnExit cleanup;
    for (const std::string &run : {out, out + ".thread"})
        for (const char *suffix :
             {"", ".journal.jsonl", ".journal.jsonl.shards.d",
              ".summary.csv", ".summary.json"})
            cleanup.paths.push_back(run + suffix);

    // The same injected segfault: under thread isolation it kills the
    // whole campaign (the process dies by SIGSEGV). `exec` replaces
    // the shell, so the signal status reaches us unrewritten.
    int threadStatus = std::system(
        ("exec " + bin + " --campaign smoke --jobs 2"
               " --inject 4:segfault"
               " --out " + out + ".thread >/dev/null 2>&1")
            .c_str());
    ASSERT_TRUE(WIFSIGNALED(threadStatus));
    EXPECT_EQ(WTERMSIG(threadStatus), SIGSEGV);

    // ... under process isolation the campaign completes, reporting
    // the poison cell and exiting 1 (failures present), not dying.
    int procStatus = std::system(
        (bin + " --campaign smoke --isolate=process --shards 3"
               " --inject 4:segfault --out " + out +
         " >/dev/null 2>&1")
            .c_str());
    ASSERT_TRUE(WIFEXITED(procStatus));
    EXPECT_EQ(WEXITSTATUS(procStatus), 1);
}

TEST(SupervisorCli, SigtermReapsWorkersAndExitsThree)
{
    std::string out = testing::TempDir() + "simalpha-sigterm-" +
                      std::to_string(::getpid()) + ".json";

    // A campaign that cannot finish on its own: cell 0 hangs with no
    // timeout configured. The supervisor must be waiting on it when
    // the signal arrives.
    pid_t child = fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        execl(SIMALPHA_BIN, SIMALPHA_BIN, "--campaign", "smoke",
              "--isolate=process", "--shards", "2", "--inject",
              "0:hang", "--out", out.c_str(), (char *)nullptr);
        _exit(127);
    }

    ::usleep(1000 * 1000);      // let the workers spawn and wedge
    ASSERT_EQ(::kill(child, SIGTERM), 0);

    int status = 0;
    ASSERT_EQ(::waitpid(child, &status, 0), child);
    ASSERT_TRUE(WIFEXITED(status));
    // 3 is the distinct "interrupted, journal intact, resume works"
    // exit code — not a crash, not a plain failure.
    EXPECT_EQ(WEXITSTATUS(status), 3);

    std::string scratch = out + ".journal.jsonl.shards.d";
    std::system(("rm -rf '" + scratch + "'").c_str());
    std::remove((out + ".journal.jsonl").c_str());
    std::remove(out.c_str());
}
