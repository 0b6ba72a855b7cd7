/**
 * @file
 * The shard protocol behind `--isolate=process` (`ctest -L proc`):
 * cell-slice round-robin, the exec-able cell-list and fault-spec
 * encodings, heartbeat lines, the waitpid-status → error-class
 * mapping, the shard-journal merge (duplicate entries across shards,
 * stale manifest hashes, torn final lines), and the in-process worker
 * entry point `runShardWorker`.
 *
 * Everything here runs inside the test process; the actual fork/exec
 * supervision is exercised end-to-end in test_supervisor.cc.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "runner/artifacts.hh"
#include "runner/campaign.hh"
#include "runner/journal.hh"
#include "runner/runner.hh"
#include "runner/shard.hh"

using namespace simalpha;
using namespace simalpha::runner;
using validate::Optimization;

namespace {

std::string
uniquePath(const std::string &stem)
{
    return testing::TempDir() + "simalpha-shard-" + stem + "-" +
           std::to_string(::getpid()) + ".jsonl";
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

void
writeFile(const std::string &path, const std::string &content)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << content;
}

/** A journal line for @p cell as a completed-ok result with the given
 *  cycle count, carrying the current manifest hash so the merge
 *  accepts it. */
std::string
okLine(const std::string &campaign, const Cell &cell, Cycle cycles)
{
    CellResult r;
    r.cell = cell;
    r.seed = cellSeed(cell);
    r.ok = true;
    r.cycles = cycles;
    r.instsCommitted = cell.maxInsts;
    r.finished = false;
    r.manifestHash = cellManifestHash(cell);
    return journalLine(campaign, r);
}

} // namespace

// ---------------------------------------------------------------------
// Cell slicing and the exec-able encodings
// ---------------------------------------------------------------------

TEST(ShardProtocol, RoundRobinCoversEveryCellExactlyOnce)
{
    auto shards = shardCells(10, 3);
    ASSERT_EQ(shards.size(), 3u);
    EXPECT_EQ(shards[0], (std::vector<std::size_t>{0, 3, 6, 9}));
    EXPECT_EQ(shards[1], (std::vector<std::size_t>{1, 4, 7}));
    EXPECT_EQ(shards[2], (std::vector<std::size_t>{2, 5, 8}));

    // More shards than cells: the surplus shards are empty, no cell
    // is lost or duplicated.
    auto sparse = shardCells(2, 5);
    ASSERT_EQ(sparse.size(), 5u);
    EXPECT_EQ(sparse[0], (std::vector<std::size_t>{0}));
    EXPECT_EQ(sparse[1], (std::vector<std::size_t>{1}));
    for (std::size_t i = 2; i < 5; i++)
        EXPECT_TRUE(sparse[i].empty());

    // Degenerate shard count is clamped, never a division by zero.
    auto one = shardCells(4, 0);
    ASSERT_EQ(one.size(), 1u);
    EXPECT_EQ(one[0], (std::vector<std::size_t>{0, 1, 2, 3}));
}

TEST(ShardProtocol, CellListRoundTrips)
{
    std::vector<std::size_t> cells = {0, 3, 17, 442};
    std::string text = formatCellList(cells);
    EXPECT_EQ(text, "0,3,17,442");

    std::vector<std::size_t> parsed;
    std::string error;
    ASSERT_TRUE(parseCellList(text, &parsed, &error)) << error;
    EXPECT_EQ(parsed, cells);

    EXPECT_FALSE(parseCellList("", &parsed, &error));
    EXPECT_FALSE(parseCellList("1,,2", &parsed, &error));
    EXPECT_FALSE(parseCellList("1,x", &parsed, &error));
}

TEST(ShardProtocol, FaultSpecRoundTripsEveryKind)
{
    for (FaultInjection::Kind kind :
         {FaultInjection::Kind::Panic, FaultInjection::Kind::Stall,
          FaultInjection::Kind::Throw, FaultInjection::Kind::Abort,
          FaultInjection::Kind::Segfault, FaultInjection::Kind::Hang})
        for (int times : {-1, 0, 2}) {
            FaultInjection fault{17, kind, times};
            FaultInjection parsed;
            std::string error;
            ASSERT_TRUE(parseFaultSpec(formatFaultSpec(fault), &parsed,
                                       &error))
                << error;
            EXPECT_EQ(parsed.cellIndex, fault.cellIndex);
            EXPECT_EQ(parsed.kind, fault.kind);
            EXPECT_EQ(parsed.times, fault.times);
        }

    FaultInjection parsed;
    std::string error;
    EXPECT_FALSE(parseFaultSpec("17", &parsed, &error));
    EXPECT_FALSE(parseFaultSpec(":segfault", &parsed, &error));
    EXPECT_FALSE(parseFaultSpec("x:segfault", &parsed, &error));
    EXPECT_FALSE(parseFaultSpec("17:frobnicate", &parsed, &error));
    EXPECT_NE(error.find("frobnicate"), std::string::npos) << error;
    EXPECT_FALSE(parseFaultSpec("17:hang:x", &parsed, &error));
}

// ---------------------------------------------------------------------
// Heartbeats
// ---------------------------------------------------------------------

TEST(ShardProtocol, HeartbeatLineRoundTrips)
{
    std::string line = heartbeatLine("smoke", 7, "C-S2");
    EXPECT_EQ(line.find('\n'), std::string::npos);

    std::size_t cell = 0;
    EXPECT_TRUE(parseHeartbeatLine(line, "smoke", &cell));
    EXPECT_EQ(cell, 7u);

    // Wrong campaign, result lines, and torn lines are all rejected —
    // the same read-what-we-write contract the journal parser follows.
    EXPECT_FALSE(parseHeartbeatLine(line, "table4", &cell));
    EXPECT_FALSE(
        parseHeartbeatLine(line.substr(0, line.size() / 2), "smoke",
                           &cell));
    Cell c{"sim-outorder", Optimization::None, "C-Ca", 2000, 0};
    EXPECT_FALSE(parseHeartbeatLine(okLine("smoke", c, 100), "smoke",
                                    &cell));
}

// ---------------------------------------------------------------------
// Wait-status → error-class mapping (real statuses via fork/exec)
// ---------------------------------------------------------------------

TEST(ShardProtocol, WaitStatusMapping)
{
    std::string cls, msg;

    // system(3) returns a genuine waitpid status, so the mapping is
    // exercised against statuses the kernel actually produces.
    EXPECT_TRUE(describeWaitStatus(std::system("exit 0"), &cls, &msg));
    EXPECT_TRUE(cls.empty());

    EXPECT_FALSE(describeWaitStatus(std::system("exit 3"), &cls, &msg));
    EXPECT_EQ(cls, "crash");
    EXPECT_NE(msg.find("status 3"), std::string::npos) << msg;

    EXPECT_FALSE(describeWaitStatus(
        std::system("kill -SEGV $$ 2>/dev/null"), &cls, &msg));
    EXPECT_EQ(cls, "crash");
    EXPECT_NE(msg.find("signal 11"), std::string::npos) << msg;

    EXPECT_FALSE(describeWaitStatus(
        std::system("kill -ABRT $$ 2>/dev/null"), &cls, &msg));
    EXPECT_EQ(cls, "crash");
    EXPECT_NE(msg.find("signal 6"), std::string::npos) << msg;

    EXPECT_FALSE(describeWaitStatus(
        std::system("kill -KILL $$ 2>/dev/null"), &cls, &msg));
    EXPECT_EQ(cls, "crash");
    EXPECT_NE(msg.find("signal 9"), std::string::npos) << msg;
}

// ---------------------------------------------------------------------
// Shard-journal merge
// ---------------------------------------------------------------------

TEST(ShardMerge, SpecOrderedMergeAcrossShardJournals)
{
    CampaignSpec spec = smokeCampaign();
    auto slices = shardCells(spec.cells.size(), 3);

    // Three shard journals, each covering its slice.
    std::vector<std::string> paths;
    for (std::size_t s = 0; s < slices.size(); s++) {
        std::string path = uniquePath("merge" + std::to_string(s));
        std::string content;
        for (std::size_t index : slices[s]) {
            content += heartbeatLine(spec.name, index,
                                     spec.cells[index].workload);
            content += '\n';
            content += okLine(spec.name, spec.cells[index],
                              Cycle(1000 + index));
            content += '\n';
        }
        writeFile(path, content);
        paths.push_back(path);
    }

    CampaignResult merged;
    std::vector<std::size_t> missing;
    mergeShardJournals(spec, paths, &merged, &missing);
    EXPECT_TRUE(missing.empty());
    ASSERT_EQ(merged.cells.size(), spec.cells.size());
    for (std::size_t i = 0; i < spec.cells.size(); i++) {
        EXPECT_TRUE(merged.cells[i].ok);
        EXPECT_EQ(merged.cells[i].cycles, Cycle(1000 + i)) << i;
        EXPECT_EQ(merged.cells[i].cell.workload,
                  spec.cells[i].workload);
    }
    for (const std::string &path : paths)
        std::remove(path.c_str());
}

TEST(ShardMerge, DuplicateCellAcrossShardsLaterJournalWins)
{
    CampaignSpec spec = smokeCampaign();
    // Both journals claim cell 0 — as after a respawn that re-ran a
    // cell whose result line raced the worker's death. The merge must
    // pick exactly one, deterministically: the later journal.
    std::string a = uniquePath("dup-a"), b = uniquePath("dup-b");
    writeFile(a, okLine(spec.name, spec.cells[0], 111) + "\n");
    writeFile(b, okLine(spec.name, spec.cells[0], 222) + "\n");

    CampaignResult merged;
    std::vector<std::size_t> missing;
    mergeShardJournals(spec, {a, b}, &merged, &missing);
    EXPECT_EQ(merged.cells[0].cycles, 222u);

    mergeShardJournals(spec, {b, a}, &merged, &missing);
    EXPECT_EQ(merged.cells[0].cycles, 111u);

    // Within one journal it is newest-wins, matching --resume replay.
    writeFile(a, okLine(spec.name, spec.cells[0], 111) + "\n" +
                     okLine(spec.name, spec.cells[0], 333) + "\n");
    mergeShardJournals(spec, {a}, &merged, &missing);
    EXPECT_EQ(merged.cells[0].cycles, 333u);

    std::remove(a.c_str());
    std::remove(b.c_str());
}

TEST(ShardMerge, StaleManifestHashIsRejected)
{
    CampaignSpec spec = smokeCampaign();
    std::string path = uniquePath("stale");
    std::string line = okLine(spec.name, spec.cells[0], 123);
    std::size_t at = line.find("\"manifest_hash\":\"");
    ASSERT_NE(at, std::string::npos);
    line.replace(at + 17, 4, "zzzz");   // not hex: never matches
    writeFile(path, line + "\n");

    CampaignResult merged;
    std::vector<std::size_t> missing;
    mergeShardJournals(spec, {path}, &merged, &missing);
    EXPECT_FALSE(merged.cells[0].ok);
    ASSERT_FALSE(missing.empty());
    EXPECT_EQ(missing.front(), 0u);
    // The unusable cell still carries its identity and seed, so the
    // supervisor can report it coherently.
    EXPECT_EQ(merged.cells[0].cell.workload, spec.cells[0].workload);
    EXPECT_EQ(merged.cells[0].seed, cellSeed(spec.cells[0]));
    std::remove(path.c_str());
}

TEST(ShardMerge, TruncatedFinalLineIsIgnored)
{
    CampaignSpec spec = smokeCampaign();
    std::string path = uniquePath("torn");
    // Cell 0 settled; cell 1's line was torn mid-write by a kill.
    std::string torn = okLine(spec.name, spec.cells[1], 456);
    writeFile(path, okLine(spec.name, spec.cells[0], 123) + "\n" +
                        torn.substr(0, torn.size() / 2));

    CampaignResult merged;
    std::vector<std::size_t> missing;
    mergeShardJournals(spec, {path}, &merged, &missing);
    EXPECT_TRUE(merged.cells[0].ok);
    EXPECT_EQ(merged.cells[0].cycles, 123u);
    EXPECT_FALSE(merged.cells[1].ok);
    ASSERT_EQ(missing.size(), spec.cells.size() - 1);
    EXPECT_EQ(missing.front(), 1u);
    std::remove(path.c_str());
}

TEST(ShardMerge, MissingJournalFilesAreSkipped)
{
    CampaignSpec spec = smokeCampaign();
    CampaignResult merged;
    std::vector<std::size_t> missing;
    mergeShardJournals(spec, {uniquePath("never-written")}, &merged,
                       &missing);
    EXPECT_EQ(missing.size(), spec.cells.size());
    for (const CellResult &r : merged.cells)
        EXPECT_FALSE(r.ok);
}

// ---------------------------------------------------------------------
// The worker entry point, in-process
// ---------------------------------------------------------------------

TEST(ShardWorker, SliceJournalAlternatesHeartbeatAndResult)
{
    std::string path = uniquePath("worker");
    std::remove(path.c_str());

    ShardWorkerOptions opts;
    opts.campaign = "smoke";
    opts.cells = {0, 3, 6};
    opts.journalPath = path;
    EXPECT_EQ(runShardWorker(opts), 0);

    CampaignSpec spec = smokeCampaign();
    std::istringstream lines(readFile(path));
    std::string line;
    std::vector<std::size_t> started, settled;
    while (std::getline(lines, line)) {
        std::size_t cell = 0;
        CellResult r;
        std::string key;
        if (parseHeartbeatLine(line, "smoke", &cell))
            started.push_back(cell);
        else if (parseJournalLine(line, "smoke", &r, &key))
            settled.push_back(SIZE_MAX);   // order checked below
        else
            FAIL() << "unparseable journal line: " << line;
    }
    // Strict alternation: every cell announces itself before running.
    EXPECT_EQ(started, opts.cells);
    EXPECT_EQ(settled.size(), opts.cells.size());

    // And the merge of that journal equals an in-process run of the
    // same cells, byte for byte.
    CampaignResult merged;
    std::vector<std::size_t> missing;
    mergeShardJournals(spec, {path}, &merged, &missing);
    EXPECT_EQ(missing.size(), spec.cells.size() - opts.cells.size());

    RunnerOptions ro;
    ro.jobs = 1;
    ro.cache = false;
    CampaignResult direct = ExperimentRunner(ro).run(spec);
    for (std::size_t index : opts.cells)
        EXPECT_EQ(journalLine("smoke", merged.cells[index]),
                  journalLine("smoke", direct.cells[index]))
            << "cell " << index;
    std::remove(path.c_str());
}

TEST(ShardWorker, FaultsAndRetriesFollowTheirCampaignIndex)
{
    std::string path = uniquePath("faults");
    std::remove(path.c_str());

    // The slice runs as one sub-spec, so the worker must hand each
    // fault to the cell it names in the campaign, not to whichever
    // cell sits at that position in the slice.
    FaultInjection transient, panic;
    transient.cellIndex = 3;
    transient.kind = FaultInjection::Kind::Throw;
    transient.times = 1;
    panic.cellIndex = 6;
    panic.kind = FaultInjection::Kind::Panic;

    ShardWorkerOptions opts;
    opts.campaign = "smoke";
    opts.cells = {0, 3, 6};
    opts.journalPath = path;
    opts.maxRetries = 1;
    opts.faults = {transient, panic};
    EXPECT_EQ(runShardWorker(opts), 0);

    std::istringstream lines(readFile(path));
    std::string line;
    std::vector<std::size_t> started;
    std::vector<CellResult> settled;
    while (std::getline(lines, line)) {
        std::size_t cell = 0;
        CellResult r;
        std::string key;
        if (parseHeartbeatLine(line, "smoke", &cell)) {
            EXPECT_EQ(started.size(), settled.size()) << line;
            started.push_back(cell);
        } else if (parseJournalLine(line, "smoke", &r, &key)) {
            EXPECT_EQ(started.size(), settled.size() + 1) << line;
            settled.push_back(r);
        } else {
            FAIL() << "unparseable journal line: " << line;
        }
    }
    EXPECT_EQ(started, opts.cells);
    ASSERT_EQ(settled.size(), opts.cells.size());

    // Cell 3 threw once and passed on its retry; cell 0 ran clean.
    // Both are byte-identical to a fault-free --jobs 1 run.
    CampaignSpec spec = smokeCampaign();
    RunnerOptions ro;
    ro.jobs = 1;
    ro.cache = false;
    CampaignResult direct = ExperimentRunner(ro).run(spec);
    for (std::size_t i : {0, 1})
        EXPECT_EQ(journalLine("smoke", settled[i]),
                  journalLine("smoke", direct.cells[opts.cells[i]]))
            << "cell " << opts.cells[i];
    EXPECT_FALSE(settled[2].ok);
    EXPECT_EQ(settled[2].errorClass, "invariant");
    EXPECT_EQ(settled[2].cell.workload, spec.cells[6].workload);
    std::remove(path.c_str());
}

TEST(ShardWorker, BadOptionsReturnConfigExitCode)
{
    std::string path = uniquePath("badopts");
    ShardWorkerOptions opts;
    opts.campaign = "no-such-campaign";
    opts.cells = {0};
    opts.journalPath = path;
    EXPECT_EQ(runShardWorker(opts), 2);

    opts.campaign = "smoke";
    opts.cells = {9999};    // out of range for the 12-cell smoke grid
    EXPECT_EQ(runShardWorker(opts), 2);
    std::remove(path.c_str());
}

TEST(ShardWorker, InterruptedFlagStopsBeforeNextCell)
{
    std::string path = uniquePath("interrupted");
    std::remove(path.c_str());
    std::atomic<bool> flag{true};

    ShardWorkerOptions opts;
    opts.campaign = "smoke";
    opts.cells = {0, 1};
    opts.journalPath = path;
    opts.interrupted = &flag;
    EXPECT_EQ(runShardWorker(opts), 3);
    // Pre-set flag: nothing ran, nothing was journaled — the
    // supervisor treats these cells as simply not attempted.
    EXPECT_TRUE(readFile(path).empty());
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Respawn backoff: deterministic, bounded, desynchronized per shard
// ---------------------------------------------------------------------

TEST(ShardProtocol, RespawnBackoffIsDeterministicBoundedAndJittered)
{
    for (int respawn = 0; respawn < 8; respawn++) {
        double d1 = respawnBackoffSeconds(0.5, respawn, 3);
        double d2 = respawnBackoffSeconds(0.5, respawn, 3);
        EXPECT_EQ(d1, d2);      // reproducible schedule
        double nominal = 0.5 * double(1u << respawn);
        EXPECT_GE(d1, nominal * 0.75);
        EXPECT_LT(d1, nominal * 1.25);
    }
    // Two crashed shards never hammer the respawn path in lockstep.
    bool differs = false;
    for (int respawn = 0; respawn < 8; respawn++)
        if (respawnBackoffSeconds(0.5, respawn, 0) !=
            respawnBackoffSeconds(0.5, respawn, 1))
            differs = true;
    EXPECT_TRUE(differs);
    // The exponent is clamped: a pathological respawn count stays a
    // finite delay, not an overflowed shift.
    double huge = respawnBackoffSeconds(0.5, 1000, 0);
    EXPECT_GT(huge, 0.0);
    EXPECT_EQ(huge, respawnBackoffSeconds(0.5, 31, 0));
}
