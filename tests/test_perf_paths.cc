/**
 * @file
 * The hot-path optimizations must not change a single simulated cycle
 * (`ctest -L perf`; also run under -DSIMALPHA_SANITIZE=address and
 * =thread).
 *
 * Three equivalences are pinned:
 *  - SIMALPHA_SLOWPATH=1 (the dual-run debug mode: original per-cycle
 *    scans executed alongside the event-driven bookkeeping, with
 *    asserts that they agree — for the issue select, on every pipe's
 *    winner in every cycle) produces byte-identical stats dumps to
 *    the default fast path over a mixed micro/macro cell set;
 *  - the same holds for a vulnerability campaign, whose flips strike
 *    the structures the select derives its state from;
 *  - core reuse via reset() is invisible: N runs on one reused core
 *    produce byte-identical dumps to N runs on N fresh cores.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "isa/machine.hh"
#include "runner/artifacts.hh"
#include "runner/campaign.hh"
#include "runner/runner.hh"
#include "validate/machines.hh"

using namespace simalpha;

namespace {

struct CellSpec
{
    const char *machine;
    const char *workload;
    std::uint64_t maxInsts;
};

/** A mixed micro/macro grid over every core type: detailed golden,
 *  sim-alpha, the stripped ablation, and the abstract comparator —
 *  plus capped Table-3 cells (art's replay-trap storm, mesa's L2
 *  misses, eon, gcc) and the configurations whose pipe-fit masks and
 *  store-wait paths differ: sim-initial's wrong FU mix and aggressive
 *  cluster, and the no-slot and no-store-wait ablations. */
const std::vector<CellSpec> &
mixedCells()
{
    static const std::vector<CellSpec> cells = {
        {"ds10l", "C-Ca", 4000},        {"ds10l", "E-D3", 4000},
        {"sim-alpha", "C-S1", 4000},    {"sim-alpha", "E-I", 4000},
        {"sim-stripped", "C-R", 4000},  {"sim-outorder", "C-O", 4000},
        {"sim-outorder", "E-D1", 4000},
        {"ds10l", "art", 20000},        {"ds10l", "mesa", 20000},
        {"ds10l", "eon", 20000},        {"ds10l", "gcc", 20000},
        {"sim-alpha", "art", 20000},    {"sim-alpha", "mesa", 20000},
        {"sim-alpha", "eon", 20000},    {"sim-alpha", "gcc", 20000},
        {"sim-outorder", "art", 20000}, {"sim-outorder", "mesa", 20000},
        {"sim-outorder", "eon", 20000}, {"sim-outorder", "gcc", 20000},
        {"sim-initial", "E-I", 4000},   {"sim-initial", "gcc", 20000},
        {"sim-alpha-no-slot", "C-S1", 4000},
        {"sim-alpha-no-slot", "gcc", 20000},
        {"sim-alpha-no-stwt", "art", 20000},
    };
    return cells;
}

/** Run one cell on @p machine and render every observable: timing
 *  plus the full stats dump. */
std::string
runAndDump(Machine &machine, const CellSpec &cell)
{
    Program program;
    std::string error;
    EXPECT_TRUE(runner::buildWorkload(cell.workload, &program, &error))
        << error;
    RunResult r = machine.run(program, cell.maxInsts);
    std::ostringstream os;
    os << cell.machine << '/' << cell.workload << ": cycles="
       << r.cycles << " insts=" << r.instsCommitted
       << " finished=" << r.finished << '\n';
    machine.statGroup().dump(os);
    return os.str();
}

/** Run the whole mixed set on fresh machines, one per cell. */
std::string
runMixedSetFresh()
{
    std::string all;
    for (const CellSpec &cell : mixedCells()) {
        std::string error;
        std::unique_ptr<Machine> machine = validate::tryMakeMachine(
            cell.machine, validate::Optimization::None, &error);
        EXPECT_TRUE(machine) << error;
        all += runAndDump(*machine, cell);
    }
    return all;
}

/** Scoped SIMALPHA_SLOWPATH=1 (machines read it at run() start). */
class ScopedSlowpath
{
  public:
    ScopedSlowpath() { ::setenv("SIMALPHA_SLOWPATH", "1", 1); }
    ~ScopedSlowpath() { ::unsetenv("SIMALPHA_SLOWPATH"); }
};

} // namespace

TEST(PerfPaths, SlowpathDualRunMatchesFastPathByteForByte)
{
    std::string fast = runMixedSetFresh();
    std::string slow;
    {
        ScopedSlowpath guard;
        slow = runMixedSetFresh();
    }
    ASSERT_FALSE(fast.empty());
    EXPECT_EQ(fast, slow);
}

TEST(PerfPaths, SlowpathVulnDrillMatchesFastPathByteForByte)
{
    // Rename-map, issue-queue, LSQ and window flips corrupt what the
    // select derives its state from (cached readiness, the unresolved-
    // store record, the store-forwarding index, producer positions).
    // The slowpath checks that state against a full rebuild
    // and the select against the original scans in every cycle after
    // the strike, so identical output means the derived state was
    // rebuilt from the struck machine. C-R keeps stores and loads in
    // flight; this seed's plan flips a store's memIssued on sim-alpha
    // and a memory op's address on sim-outorder, and fails if either
    // rebuild is skipped.
    for (const char *machine : {"sim-alpha", "sim-outorder"}) {
        runner::VulnSpec vs;
        vs.machine = machine;
        vs.workload = "C-R";
        vs.maxInsts = 600000;
        vs.cells = 64;
        vs.seed = 3;
        vs.targets = {inject::Target::RenameMap, inject::Target::Iq,
                      inject::Target::Lsq, inject::Target::Rob};
        runner::CampaignSpec spec = runner::vulnCampaign(vs);
        auto render = [&spec] {
            runner::RunnerOptions options;
            options.jobs = 2;
            runner::ExperimentRunner runner(options);
            runner::CampaignResult result = runner.run(spec);
            return runner::toJson(result) + runner::toCsv(result);
        };
        std::string fast = render();
        std::string slow;
        {
            ScopedSlowpath guard;
            slow = render();
        }
        ASSERT_FALSE(fast.empty());
        if (fast != slow) {
            // Report the first differing line, not two whole artifacts.
            std::istringstream f(fast), s(slow);
            std::string fl, sl;
            while (std::getline(f, fl) && std::getline(s, sl) && fl == sl) {
            }
            ADD_FAILURE() << machine << " diverged:\n  fast: " << fl
                          << "\n  slow: " << sl;
        }
    }
}

TEST(PerfPaths, ReusedCoreMatchesFreshCoresByteForByte)
{
    // Every machine type runs its cells twice: once on a core reused
    // across all of its cells (reset() path), once on a fresh core
    // per cell (construction path). The dumps must match bytewise —
    // including a repeat of the first cell after the core has run a
    // different workload, the hardest case for stale state.
    for (const char *name :
         {"ds10l", "sim-alpha", "sim-stripped", "sim-outorder"}) {
        std::vector<CellSpec> cells;
        for (const CellSpec &cell : mixedCells())
            if (std::string(cell.machine) == name)
                cells.push_back(cell);
        cells.push_back({name, "E-D2", 4000});
        cells.push_back(cells.front());     // revisit after reuse

        std::string error;
        std::unique_ptr<Machine> reused = validate::tryMakeMachine(
            name, validate::Optimization::None, &error);
        ASSERT_TRUE(reused) << error;

        for (const CellSpec &cell : cells) {
            std::unique_ptr<Machine> fresh = validate::tryMakeMachine(
                name, validate::Optimization::None, &error);
            ASSERT_TRUE(fresh) << error;
            EXPECT_EQ(runAndDump(*reused, cell),
                      runAndDump(*fresh, cell))
                << name << " diverged on " << cell.workload;
        }
    }
}
