/**
 * @file
 * Cells of one run share their workloads: one Program per workload and
 * one checkpoint set per sampled (workload, cap, spec), held in the
 * run's WorkloadTable. Sharing must not change a byte: a shuffled
 * campaign's journal at --jobs 1 and 4 equals the lines of the same
 * cells each run through an ExperimentRunner of its own, a failed
 * build reaches each of its cells as the same error, every workload is
 * built once however the pool threads race for it, and no entry
 * outlives the last cell that names it.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "isa/assembler.hh"
#include "runner/campaign.hh"
#include "runner/journal.hh"
#include "runner/runner.hh"

using namespace simalpha;
using namespace simalpha::runner;

namespace {

std::uint64_t
splitmix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** @p spec's cells in a seeded Fisher-Yates order, as the benchmark
 *  shuffles its in-process campaigns, so a workload's cells are spread
 *  over the run instead of adjacent. */
CampaignSpec
shuffled(CampaignSpec spec, std::uint64_t seed)
{
    std::uint64_t state = splitmix(seed);
    for (std::size_t i = spec.cells.size(); i > 1; i--) {
        state = splitmix(state);
        std::swap(spec.cells[i - 1], spec.cells[state % i]);
    }
    return spec;
}

constexpr const char *kUnknown = "no-such-workload";

/** Three Table-3 workloads on ds10l, sim-alpha and sim-outorder,
 *  capped, plus an unknown workload on two machines. */
CampaignSpec
fullCampaign()
{
    CampaignSpec spec;
    spec.name = "shared-full";
    for (const char *w : {"gcc", "art", "mesa"})
        for (const char *m : {"ds10l", "sim-alpha", "sim-outorder"})
            spec.cells.push_back(
                {m, validate::Optimization::None, w, 8000, 0, {}, {}});
    for (const char *m : {"sim-alpha", "sim-outorder"})
        spec.cells.push_back(
            {m, validate::Optimization::None, kUnknown, 8000, 0, {}, {}});
    return shuffled(spec, 7);
}

/** Two workloads sampled on four machines. */
CampaignSpec
sampledCampaign()
{
    checkpoint::SampleSpec sample;
    std::string error;
    EXPECT_TRUE(checkpoint::parseSampleSpec("windows=3,len=500,warmup=100",
                                            &sample, &error))
        << error;
    CampaignSpec spec;
    spec.name = "shared-sampled";
    for (const char *w : {"art", "twolf"})
        for (const char *m :
             {"ds10l", "sim-alpha", "sim-stripped", "sim-outorder"})
            spec.cells.push_back(
                {m, validate::Optimization::None, w, 60000, 0, {}, {}});
    return shuffled(spec.withSampling(sample), 11);
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/** The journal of one run of @p spec at @p jobs. */
std::string
journalOf(const CampaignSpec &spec, int jobs)
{
    const std::string path = testing::TempDir() + "shared-" + spec.name +
                             "-" + std::to_string(jobs) + "-" +
                             std::to_string(::getpid()) + ".jsonl";
    std::remove(path.c_str());
    RunnerOptions ro;
    ro.jobs = jobs;
    ro.cache = false;
    ro.journalPath = path;
    ExperimentRunner(ro).run(spec);
    std::string journal = slurp(path);
    std::remove(path.c_str());
    return journal;
}

/** What that journal holds when every cell runs through its own
 *  runner, sharing nothing with the others. */
std::string
isolatedLines(const CampaignSpec &spec, std::vector<CellResult> *results)
{
    std::string lines;
    for (const Cell &cell : spec.cells) {
        CampaignSpec one;
        one.name = spec.name;
        one.cells = {cell};
        RunnerOptions ro;
        ro.cache = false;
        CellResult r = ExperimentRunner(ro).run(one).cells.at(0);
        lines += journalLine(spec.name, r) + "\n";
        results->push_back(r);
    }
    return lines;
}

} // namespace

TEST(RunnerDeterminism, SharedWorkloadsMatchIsolatedCells)
{
    const CampaignSpec spec = fullCampaign();
    std::vector<CellResult> isolated;
    const std::string expected = isolatedLines(spec, &isolated);

    std::size_t unknown = 0;
    for (const CellResult &r : isolated) {
        if (r.cell.workload != kUnknown) {
            EXPECT_TRUE(r.ok) << r.cell.machine << "/" << r.cell.workload;
            continue;
        }
        unknown++;
        EXPECT_FALSE(r.ok);
        EXPECT_EQ(r.errorClass, "workload");
        EXPECT_EQ(r.error,
                  std::string("unknown workload '") + kUnknown + "'");
    }
    EXPECT_EQ(unknown, 2u);

    EXPECT_EQ(journalOf(spec, 1), expected);
    EXPECT_EQ(journalOf(spec, 4), expected);
}

TEST(RunnerDeterminism, SharedSampledWindowsMatchIsolatedCells)
{
    const CampaignSpec spec = sampledCampaign();
    std::vector<CellResult> isolated;
    const std::string expected = isolatedLines(spec, &isolated);
    for (const CellResult &r : isolated) {
        EXPECT_TRUE(r.ok) << r.cell.machine << "/" << r.cell.workload
                          << ": " << r.error;
        EXPECT_EQ(r.sampleWindows, 3u);
    }

    EXPECT_EQ(journalOf(spec, 1), expected);
    EXPECT_EQ(journalOf(spec, 4), expected);
}

// ---------------------------------------------------------------------
// The table itself, over a build function that counts its calls
// ---------------------------------------------------------------------

namespace {

std::mutex g_buildMutex;
std::map<std::string, int> g_builds;
/** Builds of "flaky" that throw before one succeeds. */
int g_flakyThrows = 0;

/** A small stand-in for buildWorkload: one data word per workload,
 *  slow enough that pool threads asking together overlap. */
bool
countingBuild(const std::string &name, Program *out, std::string *error)
{
    {
        std::lock_guard<std::mutex> lock(g_buildMutex);
        g_builds[name]++;
        if (name == "flaky" && g_flakyThrows > 0) {
            g_flakyThrows--;
            throw std::runtime_error("flaky build");
        }
    }
    if (name == kUnknown) {
        *error = "unknown workload '" + name + "'";
        return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    ProgramBuilder b(name);
    b.dataWord(Program::kDataBase, name.size());
    b.halt();
    *out = b.finish();
    return true;
}

void
resetBuilds(int flakyThrows = 0)
{
    std::lock_guard<std::mutex> lock(g_buildMutex);
    g_builds.clear();
    g_flakyThrows = flakyThrows;
}

std::vector<std::size_t>
allCells(const CampaignSpec &spec)
{
    std::vector<std::size_t> cells(spec.cells.size());
    for (std::size_t i = 0; i < cells.size(); i++)
        cells[i] = i;
    return cells;
}

} // namespace

TEST(WorkloadTable, FourThreadsBuildEachTable3WorkloadOnce)
{
    // Table 3 lists a workload's four machines together, so four pool
    // threads taking cells in spec order ask for one workload at once.
    const CampaignSpec spec = table3Campaign();
    resetBuilds();
    WorkloadTable table(spec, allCells(spec), &countingBuild);

    std::mutex mu;
    std::map<std::string, const Program *> seen;
    std::map<std::string, std::weak_ptr<const Program>> kept;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> mismatches{0};
    auto worker = [&] {
        for (std::size_t i; (i = next++) < spec.cells.size();) {
            const Cell &cell = spec.cells[i];
            std::string error;
            std::shared_ptr<const Program> p = table.program(cell, &error);
            if (!p || p->name != cell.workload || !p->dataReleased()) {
                mismatches++;
            } else {
                std::lock_guard<std::mutex> lock(mu);
                auto [it, first] = seen.emplace(cell.workload, p.get());
                if (first)
                    kept[cell.workload] = p;
                else if (it->second != p.get())
                    mismatches++;
            }
            p.reset();
            table.settle(cell);
        }
    };
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; t++)
        threads.emplace_back(worker);
    for (std::thread &t : threads)
        t.join();

    EXPECT_EQ(mismatches.load(), 0u);
    EXPECT_EQ(g_builds.size(), 10u);
    for (const auto &[name, builds] : g_builds)
        EXPECT_EQ(builds, 1) << name;
    // Every cell settled, so the table holds no program.
    for (const auto &[name, program] : kept)
        EXPECT_TRUE(program.expired()) << name;
}

TEST(WorkloadTable, EntryLivesUntilItsLastCellSettles)
{
    CampaignSpec spec = table3Campaign();
    spec.cells.resize(4);   // one workload on four machines
    checkpoint::SampleSpec sample;
    sample.windows = 1;
    sample.len = 1;
    spec.cells[3].sample = sample;
    resetBuilds();
    WorkloadTable table(spec, allCells(spec), &countingBuild);

    std::string error;
    std::weak_ptr<const Program> program =
        table.program(spec.cells[0], &error);
    int makes = 0;
    auto make = [&](SampledWindows *out, std::string *) {
        makes++;
        out->info.totalInsts = 1;
        return true;
    };
    std::weak_ptr<const SampledWindows> windows =
        table.windows(spec.cells[3], make, &error);
    ASSERT_FALSE(program.expired());
    ASSERT_FALSE(windows.expired());

    table.settle(spec.cells[0]);
    table.settle(spec.cells[1]);
    EXPECT_EQ(table.program(spec.cells[2], &error).get(),
              program.lock().get());
    table.settle(spec.cells[2]);
    EXPECT_FALSE(program.expired());
    EXPECT_EQ(table.windows(spec.cells[3], make, &error).get(),
              windows.lock().get());
    table.settle(spec.cells[3]);
    EXPECT_TRUE(program.expired());
    EXPECT_TRUE(windows.expired());
    EXPECT_EQ(g_builds[spec.cells[0].workload], 1);
    EXPECT_EQ(makes, 1);
}

TEST(WorkloadTable, FailedBuildIsKeptAndThrownBuildIsRetried)
{
    CampaignSpec spec;
    for (const char *w : {kUnknown, kUnknown, "flaky", "flaky"})
        spec.cells.push_back(
            {"sim-alpha", validate::Optimization::None, w, 0, 0, {}, {}});
    resetBuilds(1);
    WorkloadTable table(spec, allCells(spec), &countingBuild);

    // A build that returns false is kept: both cells get its error.
    for (int i : {0, 1}) {
        std::string error;
        EXPECT_EQ(table.program(spec.cells[i], &error), nullptr);
        EXPECT_EQ(error, std::string("unknown workload '") + kUnknown + "'");
    }
    EXPECT_EQ(g_builds[kUnknown], 1);

    // One that throws is not: the next cell builds again.
    std::string error;
    EXPECT_THROW(table.program(spec.cells[2], &error), std::runtime_error);
    EXPECT_NE(table.program(spec.cells[3], &error), nullptr);
    EXPECT_EQ(g_builds["flaky"], 2);
}
