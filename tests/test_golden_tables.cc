/**
 * @file
 * Golden-value regression tests for the paper's table campaigns.
 *
 * Each golden table runs a campaign through the parallel
 * ExperimentRunner and compares the canonical JSON artifact
 * byte-for-byte against the checked-in golden file — so any change to
 * the machine models, the workloads, or the runner that moves a single
 * cycle count fails loudly.
 *
 *   table2.json  the 21-microbenchmark suite on ds10l, sim-alpha, and
 *                sim-outorder, run to completion
 *   table3.json  the ten SPEC2000 synthetics on ds10l, sim-alpha,
 *                sim-stripped, and sim-outorder, capped at 20k
 *                committed instructions per cell
 *   table4.json  the macro suite on sim-alpha and its ten ablations,
 *                capped at 20k committed instructions per cell (the
 *                full Table 4 takes minutes; the cap keeps the golden
 *                run a few seconds while still exercising every
 *                ablation's timing paths)
 *   table5.json  the macro suite across all 13 stability
 *                configurations × 4 optimization sweeps, capped at
 *                20k — the widest grid, covering every machine the
 *                stability analysis touches
 *   vuln-sim-alpha.json, vuln-sim-outorder.json
 *                single-bit strikes on C-Ca (capped at 400k) over all
 *                nine targets, 90 cells on sim-alpha and 180 on
 *                sim-outorder: every outcome class, and every
 *                injection note, deadlock snapshot and failed
 *                assertion's text the strikes produce, so a move of
 *                the cores' strike or watchdog code that changes a
 *                byte of what a cell reports fails here
 *   vuln-cachedata.json
 *                12 cachedata strikes on gcc on sim-alpha: C-Ca writes
 *                no data before its strikes, so this pins the choice
 *                of a word the D-cache holds
 *
 * When a change intentionally moves the numbers, regenerate all with:
 *
 *   build/tests/test_golden_tables --regenerate
 *
 * and commit the updated golden files alongside the change that
 * explains it.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "common/logging.hh"
#include "runner/artifacts.hh"
#include "runner/campaign.hh"
#include "runner/runner.hh"

using namespace simalpha;
using namespace simalpha::runner;

namespace {

struct GoldenTable
{
    const char *path;                   ///< checked-in artifact
    CampaignResult (*run)();            ///< reproduces it
    std::size_t expectCells;
};

CampaignResult
runTable2()
{
    CampaignSpec spec =
        table2Campaign({"ds10l", "sim-alpha", "sim-outorder"});
    RunnerOptions opts;
    opts.jobs = 4;
    ExperimentRunner runner(opts);
    return runner.run(spec);
}

CampaignResult
runTable3()
{
    CampaignSpec spec = table3Campaign().withMaxInsts(20000);
    RunnerOptions opts;
    opts.jobs = 4;
    ExperimentRunner runner(opts);
    return runner.run(spec);
}

CampaignResult
runTable4()
{
    CampaignSpec spec = table4Campaign().withMaxInsts(20000);
    RunnerOptions opts;
    opts.jobs = 4;
    ExperimentRunner runner(opts);
    return runner.run(spec);
}

CampaignResult
runTable5()
{
    // The widest grid (520 cells); jobs never moves a byte, so run it
    // wide to keep the golden check quick.
    CampaignSpec spec = table5Campaign().withMaxInsts(20000);
    RunnerOptions opts;
    opts.jobs = 8;
    ExperimentRunner runner(opts);
    return runner.run(spec);
}

CampaignResult
runVuln(const std::string &name)
{
    CampaignSpec spec;
    if (!campaignByName(name, &spec))
        return {};
    RunnerOptions opts;
    opts.jobs = 4;
    ExperimentRunner runner(opts);
    return runner.run(spec);
}

/** Every target, in the order allTargets() names them. */
#define ALL_TARGETS \
    "regfile+renamemap+rob+lsq+iq+bpred+cachetag+cachedata+tlbtag"

CampaignResult
runVulnAlpha()
{
    return runVuln("vuln:sim-alpha:C-Ca:400000:90:7:" ALL_TARGETS);
}

CampaignResult
runVulnOutorder()
{
    return runVuln("vuln:sim-outorder:C-Ca:400000:180:7:" ALL_TARGETS);
}

CampaignResult
runVulnCacheData()
{
    return runVuln("vuln:sim-alpha:gcc:600000:12:7:cachedata");
}

const GoldenTable kTables[] = {
    {SIMALPHA_GOLDEN_DIR "/table2.json", runTable2, 21u * 3u},
    {SIMALPHA_GOLDEN_DIR "/table3.json", runTable3, 10u * 4u},
    {SIMALPHA_GOLDEN_DIR "/table4.json", runTable4, 110u},
    {SIMALPHA_GOLDEN_DIR "/table5.json", runTable5, 520u},
    {SIMALPHA_GOLDEN_DIR "/vuln-sim-alpha.json", runVulnAlpha, 90u},
    {SIMALPHA_GOLDEN_DIR "/vuln-sim-outorder.json", runVulnOutorder, 180u},
    {SIMALPHA_GOLDEN_DIR "/vuln-cachedata.json", runVulnCacheData, 12u},
};

std::string
readFile(const char *path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return "";
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/** First differing line of two texts, for a readable failure. */
void
reportFirstDiff(const std::string &golden, const std::string &fresh)
{
    std::istringstream ga(golden), fa(fresh);
    std::string gl, fl;
    int line = 0;
    while (true) {
        bool gok = bool(std::getline(ga, gl));
        bool fok = bool(std::getline(fa, fl));
        line++;
        if (!gok && !fok)
            return;
        if (gl != fl || gok != fok) {
            ADD_FAILURE()
                << "first difference at line " << line << ":\n"
                << "  golden: " << (gok ? gl : "<eof>") << "\n"
                << "  fresh:  " << (fok ? fl : "<eof>");
            return;
        }
    }
}

void
checkTable(const GoldenTable &table)
{
    std::string golden = readFile(table.path);
    ASSERT_FALSE(golden.empty())
        << "missing golden file " << table.path
        << " — regenerate with: build/tests/test_golden_tables "
           "--regenerate";

    CampaignResult result = table.run();
    ASSERT_EQ(result.errorCount(), 0u);
    ASSERT_EQ(result.cells.size(), table.expectCells);

    std::string fresh = toJson(result);
    if (fresh != golden) {
        reportFirstDiff(golden, fresh);
        FAIL() << "campaign diverged from " << table.path
               << " — if the change is intentional, regenerate with: "
                  "build/tests/test_golden_tables --regenerate";
    }

    // Cross-check table-level semantics independent of the byte
    // comparison: every cell ran and made progress, except a struck
    // run that crashed or deadlocked, which reports its outcome in
    // place of counts.
    for (const CellResult &r : result.cells) {
        EXPECT_TRUE(r.ok) << r.cell.workload;
        if (r.injectOutcome == "crash" || r.injectOutcome == "deadlock")
            continue;
        EXPECT_GT(r.cycles, 0u) << r.cell.workload;
        EXPECT_GT(r.instsCommitted, 0u) << r.cell.workload;
    }
}

} // namespace

TEST(GoldenTables, Table2MatchesCheckedInArtifact)
{
    checkTable(kTables[0]);
}

TEST(GoldenTables, Table3CappedMatchesCheckedInArtifact)
{
    checkTable(kTables[1]);
}

TEST(GoldenTables, Table4CappedMatchesCheckedInArtifact)
{
    checkTable(kTables[2]);
}

TEST(GoldenTables, Table5CappedMatchesCheckedInArtifact)
{
    checkTable(kTables[3]);
}

TEST(GoldenTables, SimAlphaStrikesMatchCheckedInArtifact)
{
    checkTable(kTables[4]);
}

TEST(GoldenTables, SimOutorderStrikesMatchCheckedInArtifact)
{
    checkTable(kTables[5]);
}

TEST(GoldenTables, CacheDataStrikesMatchCheckedInArtifact)
{
    checkTable(kTables[6]);
}

int
main(int argc, char **argv)
{
    setQuiet(true);
    for (int i = 1; i < argc; i++) {
        if (std::strcmp(argv[i], "--regenerate") == 0) {
            for (const GoldenTable &table : kTables) {
                CampaignResult result = table.run();
                if (result.errorCount()) {
                    std::fprintf(stderr,
                                 "refusing to regenerate %s: %zu "
                                 "cells failed\n",
                                 table.path, result.errorCount());
                    return 1;
                }
                std::string error;
                if (!writeArtifact(result, table.path, &error)) {
                    std::fprintf(stderr, "%s\n", error.c_str());
                    return 1;
                }
                std::printf("wrote %s (%zu cells)\n", table.path,
                            result.cells.size());
            }
            return 0;
        }
    }
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
