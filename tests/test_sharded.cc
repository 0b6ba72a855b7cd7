/**
 * @file
 * The sharded executor (`ctest -L proc`): the replay, merge, release
 * and declare rules of runner::ShardedRun, driven by fake in-process
 * transports, plus one durability drill against the real binary — a
 * SIGKILLed `--isolate=process` supervisor whose settled cells were
 * all held back from the master journal by a hung first cell, resumed
 * to the `--jobs 1` artifact.
 * Its thread-mode twin SIGKILLs a `--jobs 3` run the same way and
 * resumes it from the pool's arrival journal.
 */

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "runner/artifacts.hh"
#include "runner/campaign.hh"
#include "runner/journal.hh"
#include "runner/runner.hh"
#include "runner/shard.hh"
#include "runner/sharded.hh"

using namespace simalpha;
using namespace simalpha::runner;

namespace {

std::string
uniqueDir(const std::string &stem)
{
    static std::atomic<int> counter{0};
    std::string dir = testing::TempDir() + "sharded-" + stem + "-" +
                      std::to_string(::getpid()) + "-" +
                      std::to_string(counter++);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

std::vector<std::string>
fileLines(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line))
        lines.push_back(line);
    return lines;
}

void
writeLines(const std::string &path, const std::vector<std::string> &lines)
{
    std::ofstream out(path, std::ios::binary);
    for (const std::string &line : lines)
        out << line << '\n';
}

/** The smoke campaign's `--jobs 1` journal lines, in spec order. */
const std::vector<std::string> &
reference()
{
    static const std::vector<std::string> lines = [] {
        RunnerOptions ro;
        ro.jobs = 1;
        ro.cache = false;
        std::vector<std::string> out;
        for (const CellResult &c :
             ExperimentRunner(ro).run(smokeCampaign()).cells)
            out.push_back(journalLine("smoke", c));
        return out;
    }();
    return lines;
}

/** Every sink call, in order. */
struct Sink
{
    std::vector<std::string> lines;
    std::vector<bool> replayed;

    void attach(ShardedOptions &opts)
    {
        opts.sink = [this](const std::string &line, bool,
                           bool wasReplayed) {
            lines.push_back(line);
            replayed.push_back(wasReplayed);
        };
    }
};

/** A transport delivering the reference line of each slice cell. */
bool
deliverAll(const Slice &slice, ShardedRun &run, std::string *)
{
    for (std::size_t cell : slice.cells)
        run.deliver(reference()[cell]);
    return true;
}

} // namespace

TEST(ShardedRun, ShuffledDuplicatedDeliveryReleasesInSpecOrderFirstWins)
{
    const CampaignSpec spec = smokeCampaign();
    const std::string dir = uniqueDir("order");

    // A second, different line for cell 4 that parses and carries the
    // current manifest hash: it arrives first, so it wins.
    CellResult variant;
    std::string key;
    ASSERT_TRUE(parseJournalLine(reference()[4], "smoke", &variant, &key));
    variant.cycles += 1;
    const std::string early = journalLine("smoke", variant);
    std::vector<std::string> expected = reference();
    expected[4] = early;

    Sink sink;
    ShardedOptions opts;
    opts.journalPath = dir + "/master.jsonl";
    sink.attach(opts);
    ShardedRun run(spec, opts);
    ShardedOutcome out = run.run(
        3, [&](const Slice &slice, ShardedRun &r, std::string *) {
            std::vector<std::size_t> cells = slice.cells;
            std::reverse(cells.begin(), cells.end());
            for (std::size_t cell : cells) {
                if (cell == 4) {
                    EXPECT_TRUE(r.deliver(early));
                }
                EXPECT_EQ(r.deliver(reference()[cell]), cell != 4);
                EXPECT_FALSE(r.deliver(reference()[cell]));
            }
            return true;
        });

    EXPECT_TRUE(out.missing.empty());
    EXPECT_TRUE(out.failure.empty());
    EXPECT_EQ(sink.lines, expected);
    EXPECT_EQ(fileLines(opts.journalPath), expected);
    EXPECT_EQ(std::count(sink.replayed.begin(), sink.replayed.end(), true),
              0);
    EXPECT_EQ(out.result.cells[4].cycles, variant.cycles);
    std::filesystem::remove_all(dir);
}

TEST(ShardedRun, StaleManifestDeliveryIsRejectedAndTheCellMissing)
{
    const CampaignSpec spec = smokeCampaign();
    const std::string dir = uniqueDir("stale");
    std::string stale = reference()[5];
    const std::size_t at = stale.find("\"manifest_hash\":\"");
    ASSERT_NE(at, std::string::npos);
    stale.replace(at + 17, 4, "zzzz");

    Sink sink;
    ShardedOptions opts;
    opts.journalPath = dir + "/master.jsonl";
    sink.attach(opts);
    ShardedRun run(spec, opts);
    ShardedOutcome out = run.run(
        1, [&](const Slice &slice, ShardedRun &r, std::string *) {
            for (std::size_t cell : slice.cells)
                EXPECT_EQ(r.deliver(cell == 5 ? stale
                                              : reference()[cell]),
                          cell != 5);
            EXPECT_FALSE(r.deliver("{\"campaign\":\"smoke\"}"));
            EXPECT_FALSE(r.deliver(reference()[0].substr(0, 40)));
            return true;
        });

    EXPECT_EQ(out.missing, std::vector<std::size_t>{5});
    EXPECT_FALSE(out.result.cells[5].ok);
    EXPECT_EQ(out.result.cells[5].cell.workload, spec.cells[5].workload);
    // Release stops at the gap: cells 6.. are settled but held back.
    const std::vector<std::string> prefix(reference().begin(),
                                          reference().begin() + 5);
    EXPECT_EQ(sink.lines, prefix);
    EXPECT_EQ(fileLines(opts.journalPath), prefix);
    EXPECT_TRUE(out.result.cells[6].ok);
    std::filesystem::remove_all(dir);
}

TEST(ShardedRun, DeclaredFailureIsJournaledAtOnceAndReplayedOnResume)
{
    const CampaignSpec spec = smokeCampaign();
    const std::string dir = uniqueDir("declare");
    ShardedOptions opts;
    opts.journalPath = dir + "/master.jsonl";
    opts.scratchDir = dir + "/killed.d";
    const std::string declared1 = opts.scratchDir + "/declared-1.jsonl";

    // Slice 0 never delivers (its worker hung, then the supervisor was
    // killed); slice 1 declares cell 1 and delivers the rest. Cell 0's
    // gap holds every line back from the master journal.
    std::string declaredLine;
    {
        ShardedRun run(spec, opts);
        ShardedOutcome out = run.run(
            2, [&](const Slice &slice, ShardedRun &r, std::string *) {
                if (slice.index == 0)
                    return true;
                EXPECT_TRUE(r.declare(1, "crash", "worker killed by "
                                                  "signal 11 (drill)"));
                EXPECT_FALSE(r.declare(1, "crash", "again"));
                for (std::size_t cell : slice.cells)
                    if (cell != 1)
                        r.deliver(reference()[cell]);
                return true;
            });
        EXPECT_EQ(out.missing.size(), 6u);
        EXPECT_EQ(out.result.cells[1].errorClass, "crash");
        EXPECT_TRUE(fileLines(opts.journalPath).empty());
        const std::vector<std::string> declared = fileLines(declared1);
        ASSERT_EQ(declared.size(), 1u);
        declaredLine = declared[0];
        EXPECT_NE(declaredLine.find("signal 11 (drill)"),
                  std::string::npos);
    }

    // The resume replays the declared failure: slice 1 is handed only
    // its other cells, and the master ends up complete, in spec order.
    // Its scratch directory holds the declared journal alone (not the
    // killed run's arrival journal), so every other cell runs again.
    opts.resume = true;
    opts.scratchDir = dir + "/resume.d";
    std::filesystem::create_directory(opts.scratchDir);
    std::filesystem::rename(declared1,
                            opts.scratchDir + "/declared-1.jsonl");
    std::mutex mu;
    std::vector<std::vector<std::size_t>> handed(2);
    ShardedRun run(spec, opts);
    EXPECT_EQ(run.unsettled(), spec.cells.size() - 1);
    ShardedOutcome out = run.run(
        2, [&](const Slice &slice, ShardedRun &r, std::string *e) {
            {
                std::lock_guard<std::mutex> lock(mu);
                handed[slice.index] = slice.cells;
            }
            return deliverAll(slice, r, e);
        });
    EXPECT_EQ(out.replayed, 1u);
    EXPECT_TRUE(out.missing.empty());
    EXPECT_EQ(handed[0], (std::vector<std::size_t>{0, 2, 4, 6, 8, 10}));
    EXPECT_EQ(handed[1], (std::vector<std::size_t>{3, 5, 7, 9, 11}));
    std::vector<std::string> expected = reference();
    expected[1] = declaredLine;
    EXPECT_EQ(fileLines(opts.journalPath), expected);
    EXPECT_EQ(out.result.cells[1].errorClass, "crash");
    EXPECT_FALSE(std::filesystem::exists(opts.scratchDir +
                                         "/declared-2.jsonl"));
    std::filesystem::remove_all(dir);
}

TEST(ShardedRun, FullyReplayedSliceNeverCallsTheTransport)
{
    const CampaignSpec spec = smokeCampaign();
    const std::string dir = uniqueDir("replay");
    ShardedOptions opts;
    opts.journalPath = dir + "/master.jsonl";
    opts.resume = true;

    // The master holds everything but slice 0 of 3 (cells 0, 3, 6, 9),
    // newest line last and in arrival order.
    std::vector<std::string> held;
    for (std::size_t cell = spec.cells.size(); cell-- > 0;)
        if (cell % 3 != 0)
            held.push_back(reference()[cell]);
    writeLines(opts.journalPath, held);

    std::atomic<int> calls{0};
    std::vector<std::size_t> handed;
    Sink sink;
    sink.attach(opts);
    {
        ShardedRun run(spec, opts);
        ShardedOutcome out = run.run(
            3, [&](const Slice &slice, ShardedRun &r, std::string *e) {
                calls++;
                EXPECT_EQ(slice.index, 0u);
                EXPECT_EQ(slice.count, 3u);
                handed = slice.cells;
                return deliverAll(slice, r, e);
            });
        EXPECT_EQ(out.replayed, 8u);
        EXPECT_TRUE(out.missing.empty());
    }
    EXPECT_EQ(calls.load(), 1);
    EXPECT_EQ(handed, (std::vector<std::size_t>{0, 3, 6, 9}));
    EXPECT_EQ(sink.lines, reference());

    // Now fully settled: nothing runs at all.
    calls = 0;
    sink.lines.clear();
    ShardedRun again(spec, opts);
    EXPECT_EQ(again.unsettled(), 0u);
    ShardedOutcome out = again.run(
        3, [&](const Slice &, ShardedRun &, std::string *) {
            calls++;
            return true;
        });
    EXPECT_EQ(calls.load(), 0);
    EXPECT_EQ(out.replayed, spec.cells.size());
    EXPECT_EQ(sink.lines, reference());
    std::filesystem::remove_all(dir);
}

TEST(ShardedRun, CancelStartsNoSliceAndWakesBackoffSleeps)
{
    const CampaignSpec spec = smokeCampaign();
    std::atomic<bool> cancel{true};
    std::atomic<int> calls{0}, cancels{0};
    ShardedOptions opts;
    opts.cancel = &cancel;
    opts.onCancel = [&] { cancels++; };
    {
        ShardedRun run(spec, opts);
        ShardedOutcome out = run.run(
            3, [&](const Slice &, ShardedRun &, std::string *) {
                calls++;
                return true;
            });
        EXPECT_TRUE(out.cancelled);
        EXPECT_EQ(out.missing.size(), spec.cells.size());
    }
    EXPECT_EQ(calls.load(), 0);
    EXPECT_EQ(cancels.load(), 1);

    // A cancel mid-run wakes a transport out of a long backoff sleep.
    cancel = false;
    cancels = 0;
    ShardedRun run(spec, opts);
    std::thread canceller([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        cancel = true;
    });
    const auto start = std::chrono::steady_clock::now();
    ShardedOutcome out = run.run(
        2, [&](const Slice &, ShardedRun &r, std::string *) {
            EXPECT_FALSE(r.sleepFor(60.0));
            EXPECT_TRUE(r.stopping());
            return true;
        });
    canceller.join();
    EXPECT_TRUE(out.cancelled);
    EXPECT_EQ(cancels.load(), 1);
    EXPECT_LT(std::chrono::steady_clock::now() - start,
              std::chrono::seconds(10));
}

TEST(ShardedRun, TransportThatGivesUpStopsTheRun)
{
    const CampaignSpec spec = smokeCampaign();
    std::atomic<bool> started{false}, sawStop{false};
    ShardedRun run(spec, ShardedOptions{});
    ShardedOutcome out = run.run(
        2, [&](const Slice &slice, ShardedRun &r, std::string *error) {
            if (slice.index == 0) {
                // Give up once the other slice is mid-dispatch.
                while (!started)
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(1));
                *error = "shard 'shard:0/2:smoke' failed: no live "
                         "workers left";
                return false;
            }
            // It sees the stop before starting anything new.
            started = true;
            sawStop = !r.sleepFor(60.0);
            return true;
        });
    EXPECT_TRUE(sawStop.load());
    EXPECT_FALSE(out.cancelled);
    EXPECT_EQ(out.failure,
              "shard 'shard:0/2:smoke' failed: no live workers left");
    EXPECT_EQ(out.missing.size(), spec.cells.size());

    // A transport that throws gives up the same way; the process
    // (a serve daemon, say) survives it.
    ShardedRun thrower(spec, ShardedOptions{});
    ShardedOutcome thrown = thrower.run(
        1, [](const Slice &, ShardedRun &, std::string *) -> bool {
            throw std::runtime_error("worker table exhausted");
        });
    EXPECT_EQ(thrown.failure, "worker table exhausted");
    EXPECT_TRUE(thrower.stopping());
}

TEST(ShardedRun, SpreadUnsettledSplitsTheRemainderOverEverySlice)
{
    const CampaignSpec spec = smokeCampaign();
    const std::string dir = uniqueDir("spread");
    ShardedOptions opts;
    opts.journalPath = dir + "/master.jsonl";
    opts.resume = true;
    opts.spreadUnsettled = true;

    // Left unsettled: cells 0, 3, 6, 9 — one original slice of 3. A
    // transport taking cell lists spreads them over all three slices.
    std::vector<std::string> held;
    for (std::size_t cell = 0; cell < spec.cells.size(); cell++)
        if (cell % 3 != 0)
            held.push_back(reference()[cell]);
    writeLines(opts.journalPath, held);

    std::mutex mu;
    std::vector<std::vector<std::size_t>> handed(3);
    ShardedRun run(spec, opts);
    ShardedOutcome out = run.run(
        3, [&](const Slice &slice, ShardedRun &r, std::string *e) {
            {
                std::lock_guard<std::mutex> lock(mu);
                handed[slice.index] = slice.cells;
            }
            return deliverAll(slice, r, e);
        });
    EXPECT_TRUE(out.missing.empty());
    EXPECT_EQ(handed[0], (std::vector<std::size_t>{0, 9}));
    EXPECT_EQ(handed[1], (std::vector<std::size_t>{3}));
    EXPECT_EQ(handed[2], (std::vector<std::size_t>{6}));
    std::filesystem::remove_all(dir);
}

TEST(ShardedRun, MasterJournalWinsOverRetainedLinesOnResume)
{
    const CampaignSpec spec = smokeCampaign();
    const std::string dir = uniqueDir("masterlast");
    ShardedOptions opts;
    opts.journalPath = dir + "/master.jsonl";
    opts.resume = true;
    opts.scratchDir = dir + "/scratch.d";
    std::filesystem::create_directory(opts.scratchDir);
    const std::string declared = opts.scratchDir + "/declared-1.jsonl";
    const std::string slice = opts.scratchDir + "/shard-0-try1.jsonl";

    // An old process run declared cell 0 and left a stale line for
    // cell 1 in its scratch directory; a later run settled both in the
    // master. Cells 2.. exist only in the retained slice journal.
    CellResult crash;
    std::string key;
    ASSERT_TRUE(parseJournalLine(reference()[0], "smoke", &crash, &key));
    crash.ok = false;
    crash.errorClass = "crash";
    crash.error = "worker killed by signal 11 (old run)";
    std::string stale = reference()[1];
    const std::size_t at = stale.find("\"manifest_hash\":\"");
    ASSERT_NE(at, std::string::npos);
    stale.replace(at + 17, 4, "zzzz");
    writeLines(declared, {journalLine("smoke", crash)});
    writeLines(slice, std::vector<std::string>(reference().begin() + 1,
                                               reference().end()));
    {
        std::ofstream out(slice, std::ios::binary | std::ios::app);
        out << stale << '\n';
    }
    writeLines(opts.journalPath, {reference()[0], reference()[1]});

    Sink sink;
    sink.attach(opts);
    std::atomic<int> calls{0};
    ShardedRun run(spec, opts);
    EXPECT_EQ(run.unsettled(), 0u);
    ShardedOutcome out = run.run(
        3, [&](const Slice &, ShardedRun &, std::string *) {
            calls++;
            return true;
        });
    EXPECT_EQ(calls.load(), 0);
    EXPECT_TRUE(out.result.cells[0].ok);
    EXPECT_EQ(sink.lines, reference());
    // The master keeps its own two lines and gains the other ten once.
    EXPECT_EQ(fileLines(opts.journalPath), reference());
    std::filesystem::remove_all(dir);
}

TEST(ShardedReplay, StaleNewerLineNeverHidesACurrentOne)
{
    const CampaignSpec spec = smokeCampaign();
    const std::string dir = uniqueDir("perline");
    std::string stale = reference()[2];
    const std::size_t at = stale.find("\"manifest_hash\":\"");
    ASSERT_NE(at, std::string::npos);
    stale.replace(at + 17, 4, "zzzz");
    const std::string a = dir + "/a.jsonl", b = dir + "/b.jsonl";
    writeLines(a, {reference()[2], stale});
    writeLines(b, {stale});

    CampaignResult merged;
    std::vector<std::size_t> missing;
    std::vector<std::string> lines;
    mergeShardJournals(spec, {a, b}, &merged, &missing, &lines);
    EXPECT_TRUE(merged.cells[2].ok);
    EXPECT_EQ(lines[2], reference()[2]);
    EXPECT_EQ(missing.size(), spec.cells.size() - 1);
    std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------
// Durability: a hard-killed supervisor loses no settled cell
// ---------------------------------------------------------------------

namespace {

std::size_t
settledInSliceJournals(const std::string &scratch)
{
    std::set<std::string> keys;
    std::error_code ec;
    for (const auto &entry :
         std::filesystem::directory_iterator(scratch, ec)) {
        const std::string name = entry.path().filename().string();
        if (name.rfind("shard-", 0) != 0 ||
            entry.path().extension() != ".jsonl")
            continue;
        for (const std::string &line :
             fileLines(entry.path().string())) {
            CellResult r;
            std::string key;
            if (parseJournalLine(line, "smoke", &r, &key))
                keys.insert(key);
        }
    }
    return keys.size();
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

} // namespace

TEST(ShardedDurability, KilledSupervisorResumesHeldBackCellsFromSliceJournals)
{
    const std::string dir = uniqueDir("drill");
    const std::string out = dir + "/proc.json";
    const std::string journal = out + ".journal.jsonl";
    const std::string scratch = journal + ".shards.d";

    // Cell 0 hangs (no timeout), so spec order releases nothing to the
    // master journal while slices 1 and 2 settle their 8 cells.
    pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        ::setpgid(0, 0);
        std::freopen("/dev/null", "w", stdout);
        std::freopen("/dev/null", "w", stderr);
        ::execl(SIMALPHA_BIN, SIMALPHA_BIN, "--campaign", "smoke",
                "--isolate=process", "--shards", "3", "--inject",
                "0:hang", "--out", out.c_str(), (char *)nullptr);
        ::_exit(127);
    }
    ::setpgid(child, child);

    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (settledInSliceJournals(scratch) < 8 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const std::size_t settled = settledInSliceJournals(scratch);
    const std::size_t released = fileLines(journal).size();
    ASSERT_EQ(::kill(-child, SIGKILL), 0);
    int status = 0;
    ASSERT_EQ(::waitpid(child, &status, 0), child);
    ASSERT_EQ(settled, 8u);
    EXPECT_EQ(released, 0u);

    // Resume without the fault: the 8 held-back cells replay from the
    // slice journals, only cell 0's slice runs, and both the artifact
    // and the master journal equal a `--jobs 1` run's.
    const std::string bin = SIMALPHA_BIN;
    const std::string log = dir + "/resume.log";
    ASSERT_EQ(std::system((bin + " --campaign smoke --isolate=process "
                                 "--shards 3 --resume --out " +
                           out + " >" + log + " 2>&1")
                              .c_str()),
              0)
        << slurp(log);
    EXPECT_NE(slurp(log).find("resumed     8 cells"), std::string::npos)
        << slurp(log);
    ASSERT_EQ(std::system((bin + " --campaign smoke --jobs 1 --out " +
                           dir + "/ref.json >/dev/null 2>&1")
                              .c_str()),
              0);
    EXPECT_EQ(slurp(out), slurp(dir + "/ref.json"));
    EXPECT_EQ(slurp(journal), slurp(dir + "/ref.json.journal.jsonl"));
    // A healthy resume deletes what it replayed.
    EXPECT_FALSE(std::filesystem::exists(scratch));
    std::filesystem::remove_all(dir);
}

TEST(ShardedDurability, ThreadRerunIsNotUndoneByAnOlderRunsRetainedFailure)
{
    const std::string dir = uniqueDir("mixed");
    const std::string out = dir + "/m.json";
    const std::string bin = SIMALPHA_BIN;
    const std::string quiet = " >/dev/null 2>&1";

    // A process run whose cell 0 segfaults keeps its scratch directory
    // (declared-1.jsonl holds the crash), then a thread-mode rerun to
    // the same --out appends 12 ok lines to the master journal.
    EXPECT_NE(std::system((bin + " --campaign smoke --isolate=process "
                                 "--shards 3 --inject 0:segfault --out " +
                           out + quiet)
                              .c_str()),
              0);
    ASSERT_TRUE(std::filesystem::exists(out + ".journal.jsonl.shards.d"));
    ASSERT_EQ(std::system((bin + " --campaign smoke --jobs 1 --out " +
                           out + quiet)
                              .c_str()),
              0);

    // A process resume replays the newer master lines, not the old
    // crash: the artifact is the `--jobs 1` one.
    ASSERT_EQ(std::system((bin + " --campaign smoke --jobs 1 --out " +
                           dir + "/ref.json --no-journal" + quiet)
                              .c_str()),
              0);
    ASSERT_EQ(std::system((bin + " --campaign smoke --isolate=process "
                                 "--shards 3 --resume --out " +
                           out + quiet)
                              .c_str()),
              0);
    EXPECT_EQ(slurp(out), slurp(dir + "/ref.json"));
    std::filesystem::remove_all(dir);
}

namespace {

/** Distinct cells settled in the in-process arrival journals kept in
 *  @p scratch. */
std::size_t
settledInArrivalJournals(const std::string &scratch)
{
    std::set<std::string> keys;
    std::error_code ec;
    for (const auto &entry :
         std::filesystem::directory_iterator(scratch, ec)) {
        if (entry.path().filename().string().rfind("arrival-", 0) != 0)
            continue;
        for (const std::string &line :
             fileLines(entry.path().string())) {
            CellResult r;
            std::string key;
            if (parseJournalLine(line, "smoke", &r, &key))
                keys.insert(key);
        }
    }
    return keys.size();
}

} // namespace

TEST(ShardedDurability, KilledThreadRunResumesHeldBackCells)
{
    const std::string dir = uniqueDir("thread-drill");
    const std::string out = dir + "/thread.json";
    const std::string journal = out + ".journal.jsonl";
    const std::string scratch = journal + ".shards.d";

    // Cell 0 hangs on one pool thread, so spec order releases nothing
    // to the master journal while the other two settle the 11 others.
    pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        ::setpgid(0, 0);
        std::freopen("/dev/null", "w", stdout);
        std::freopen("/dev/null", "w", stderr);
        ::execl(SIMALPHA_BIN, SIMALPHA_BIN, "--campaign", "smoke",
                "--jobs", "3", "--inject", "0:hang", "--out",
                out.c_str(), (char *)nullptr);
        ::_exit(127);
    }
    ::setpgid(child, child);

    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (settledInArrivalJournals(scratch) < 11 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const std::size_t settled = settledInArrivalJournals(scratch);
    const std::size_t released = fileLines(journal).size();
    ASSERT_EQ(::kill(-child, SIGKILL), 0);
    int status = 0;
    ASSERT_EQ(::waitpid(child, &status, 0), child);
    ASSERT_EQ(settled, 11u);
    EXPECT_EQ(released, 0u);

    // Resume without the fault: the 11 held-back cells replay from the
    // arrival journal, only cell 0 runs, and both the artifact and the
    // master journal equal a `--jobs 1` run's.
    const std::string bin = SIMALPHA_BIN;
    const std::string log = dir + "/resume.log";
    ASSERT_EQ(std::system((bin + " --campaign smoke --jobs 3 --resume "
                                 "--out " +
                           out + " >" + log + " 2>&1")
                              .c_str()),
              0)
        << slurp(log);
    EXPECT_NE(slurp(log).find("resumed     11 cells"), std::string::npos)
        << slurp(log);
    ASSERT_EQ(std::system((bin + " --campaign smoke --jobs 1 --out " +
                           dir + "/ref.json >/dev/null 2>&1")
                              .c_str()),
              0);
    EXPECT_EQ(slurp(out), slurp(dir + "/ref.json"));
    EXPECT_EQ(slurp(journal), slurp(dir + "/ref.json.journal.jsonl"));
    // A healthy resume deletes what it replayed.
    EXPECT_FALSE(std::filesystem::exists(scratch));
    std::filesystem::remove_all(dir);
}
