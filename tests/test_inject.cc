/**
 * @file
 * The soft-error injection subsystem (`ctest -L inject`).
 *
 * Four layers are covered:
 *  - the inject library alone: the `target:index:bit:cycle` spec
 *    grammar round-trips and rejects malformed text with an error
 *    listing every target, the plan generator is a pure function of
 *    its arguments with round-robin target coverage, the golden blob
 *    serializes strictly, and the architectural digest is sensitive
 *    to state but not to path length or memory ordering;
 *  - the cores: every target applies on both detailed cores without
 *    tripping an invariant, and a disarmed machine is byte-identical
 *    to one that never heard of injection;
 *  - the runner: a vulnerability campaign classifies every cell with
 *    a valid outcome, zero-injection journals and artifacts carry no
 *    injection fields, and classified non-masked cells stay out of
 *    the IPC aggregate;
 *  - determinism: the same campaign is byte-identical across thread
 *    mode, process shards, a warm store rerun, and --resume — the
 *    property that makes vulnerability numbers trustworthy at all.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "common/error.hh"
#include "inject/inject.hh"
#include "isa/emulator.hh"
#include "runner/artifacts.hh"
#include "runner/campaign.hh"
#include "runner/journal.hh"
#include "runner/runner.hh"
#include "runner/supervisor.hh"
#include "validate/machines.hh"

namespace fs = std::filesystem;

using namespace simalpha;
using namespace simalpha::runner;
namespace inj = simalpha::inject;

using validate::Optimization;

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
uniqueDir(const std::string &stem)
{
    std::string dir = testing::TempDir() + "simalpha-inject-" + stem +
                      "-" + std::to_string(::getpid());
    fs::remove_all(dir);
    return dir;
}

Program
workload(const std::string &name)
{
    Program p;
    std::string error;
    EXPECT_TRUE(buildWorkload(name, &p, &error)) << error;
    return p;
}

/** The test campaign: big enough that the fixed seed produces both
 *  masked and non-masked outcomes, small enough for ctest. */
VulnSpec
testVulnSpec()
{
    VulnSpec spec;
    spec.machine = "sim-outorder";
    spec.workload = "C-Ca";
    spec.maxInsts = 800000;
    spec.cells = 60;
    spec.seed = 0;
    return spec;
}

} // namespace

// ---------------------------------------------------------------------
// Spec grammar
// ---------------------------------------------------------------------

TEST(InjectSpec, RoundTripsEveryTarget)
{
    std::uint64_t index = 1;
    for (inj::Target target : inj::allTargets()) {
        inj::StateInjection s;
        s.target = target;
        s.index = index * 0x9e3779b97f4a7c15ull; // exercise full width
        s.bit = std::uint32_t(index++ % 64);
        s.cycle = index * 1000;

        std::string text = inj::formatInjectSpec(s);
        inj::StateInjection back;
        std::string error;
        ASSERT_TRUE(inj::parseInjectSpec(text, &back, &error))
            << text << ": " << error;
        EXPECT_TRUE(back == s) << text;
        // The canonical form starts with the canonical target name.
        EXPECT_EQ(text.compare(0,
                               std::string(inj::targetName(target))
                                   .size(),
                               inj::targetName(target)),
                  0)
            << text;
    }
}

TEST(InjectSpec, RejectionsListTheValidTargets)
{
    inj::StateInjection s;
    std::string error;
    const char *bad[] = {
        "",                    // empty
        "rob",                 // too few fields
        "rob:1:2",             // still too few
        "pipeline:1:2:3",      // unknown target
        "rob:x:2:3",           // non-numeric index
        "rob:1:64:3",          // bit out of range
        "rob:1:2:-5",          // negative cycle
    };
    for (const char *text : bad) {
        error.clear();
        EXPECT_FALSE(inj::parseInjectSpec(text, &s, &error)) << text;
        for (inj::Target target : inj::allTargets())
            EXPECT_NE(error.find(inj::targetName(target)),
                      std::string::npos)
                << "'" << text << "' error omits a target: " << error;
    }
    // "none" is the disabled state, not a plannable target.
    EXPECT_FALSE(inj::parseInjectSpec("none:1:2:3", &s, &error));
}

// ---------------------------------------------------------------------
// Plan generator
// ---------------------------------------------------------------------

TEST(InjectPlan, IsAPureFunctionOfItsArguments)
{
    const std::vector<inj::Target> &targets = inj::allTargets();
    std::vector<inj::StateInjection> a =
        inj::makeInjectionPlan(100, 42, targets, 5000);
    std::vector<inj::StateInjection> b =
        inj::makeInjectionPlan(100, 42, targets, 5000);
    ASSERT_EQ(a.size(), 100u);
    EXPECT_TRUE(a == b);

    // Any argument change changes the plan.
    EXPECT_FALSE(a == inj::makeInjectionPlan(100, 43, targets, 5000));
    EXPECT_FALSE(a == inj::makeInjectionPlan(100, 42, targets, 5001));
}

TEST(InjectPlan, CoversTargetsRoundRobinWithinBounds)
{
    const std::vector<inj::Target> &targets = inj::allTargets();
    std::vector<inj::StateInjection> plan =
        inj::makeInjectionPlan(3 * targets.size() + 1, 7, targets,
                               2000);
    for (std::size_t i = 0; i < plan.size(); i++) {
        EXPECT_EQ(plan[i].target, targets[i % targets.size()]) << i;
        EXPECT_LT(plan[i].bit, 64u) << i;
        EXPECT_GE(plan[i].cycle, 1u) << i;
        EXPECT_LE(plan[i].cycle, 2000u) << i;
        EXPECT_TRUE(plan[i].enabled()) << i;
    }
    // Round-robin: the first cells hit every structure exactly once.
    std::set<inj::Target> first;
    for (std::size_t i = 0; i < targets.size(); i++)
        first.insert(plan[i].target);
    EXPECT_EQ(first.size(), targets.size());
}

// ---------------------------------------------------------------------
// Campaign name: the sharding contract
// ---------------------------------------------------------------------

TEST(VulnCampaign, NameRoundTripsAndEncodesEverything)
{
    VulnSpec spec = testVulnSpec();
    spec.targets = {inj::Target::Rob, inj::Target::Bpred};
    std::string name = vulnCampaignName(spec);
    EXPECT_EQ(name, "vuln:sim-outorder:C-Ca:800000:60:0:rob+bpred");

    VulnSpec back;
    std::string error;
    ASSERT_TRUE(parseVulnCampaignName(name, &back, &error)) << error;
    EXPECT_EQ(back.machine, spec.machine);
    EXPECT_EQ(back.workload, spec.workload);
    EXPECT_EQ(back.maxInsts, spec.maxInsts);
    EXPECT_EQ(back.cells, spec.cells);
    EXPECT_EQ(back.seed, spec.seed);
    EXPECT_TRUE(back.targets == spec.targets);

    // An empty target list means "all targets" and round-trips too.
    spec.targets.clear();
    std::string all = vulnCampaignName(spec);
    VulnSpec backAll;
    ASSERT_TRUE(parseVulnCampaignName(all, &backAll, &error)) << error;
    EXPECT_TRUE(backAll.targets == inj::allTargets());
}

TEST(VulnCampaign, RejectsMalformedNames)
{
    VulnSpec spec;
    std::string error;
    const char *bad[] = {
        "vuln:sim-outorder:C-Ca:800000:60:0",          // too few
        "vuln:sim-outorder:C-Ca:0:60:0:rob",           // zero cap
        "vuln:sim-outorder:C-Ca:800000:0:0:rob",       // zero cells
        "vuln:sim-outorder:C-Ca:800000:60:0:pipeline", // bad target
        "vuln:sim-outorder:C-Ca:x:60:0:rob",           // non-numeric
    };
    for (const char *name : bad) {
        error.clear();
        EXPECT_FALSE(parseVulnCampaignName(name, &spec, &error))
            << name;
        EXPECT_FALSE(error.empty()) << name;
    }
}

TEST(VulnCampaign, ShardsRederiveTheExactPlanFromTheName)
{
    // The property process isolation rests on: campaignByName alone
    // reproduces every cell, injection included.
    VulnSpec spec = testVulnSpec();
    CampaignSpec direct = vulnCampaign(spec);
    CampaignSpec derived;
    ASSERT_TRUE(campaignByName(direct.name, &derived));
    ASSERT_EQ(derived.cells.size(), direct.cells.size());
    for (std::size_t i = 0; i < direct.cells.size(); i++) {
        EXPECT_TRUE(derived.cells[i].inject == direct.cells[i].inject)
            << i;
        EXPECT_EQ(cellSeed(derived.cells[i]),
                  cellSeed(direct.cells[i]))
            << i;
    }
    // Injection participates in the cell seed: the same cell without
    // its injection seeds differently.
    Cell bare = direct.cells[0];
    bare.inject = inj::StateInjection();
    EXPECT_NE(cellSeed(bare), cellSeed(direct.cells[0]));
}

// ---------------------------------------------------------------------
// Golden reference
// ---------------------------------------------------------------------

TEST(Golden, BlobRoundTripsStrictly)
{
    inj::GoldenRef g;
    g.digest = 0xdeadbeefcafe1234ull;
    g.cycles = 120624;
    g.insts = 360009;
    g.finished = true;

    std::string blob = inj::serializeGolden(g);
    inj::GoldenRef back;
    ASSERT_TRUE(inj::parseGolden(blob, &back)) << blob;
    EXPECT_TRUE(back == g);

    // Unfinished goldens round-trip too (they are cached so reruns
    // fail fast instead of re-running the golden).
    g.finished = false;
    ASSERT_TRUE(inj::parseGolden(inj::serializeGolden(g), &back));
    EXPECT_FALSE(back.finished);

    EXPECT_FALSE(inj::parseGolden("", &back));
    EXPECT_FALSE(inj::parseGolden("vgold2 " + blob.substr(7), &back));
    EXPECT_FALSE(inj::parseGolden(blob + " extra=1", &back));
}

TEST(Golden, KeySeparatesConfigWorkloadAndCap)
{
    std::string base = inj::goldenKey("abc123", "C-Ca", 800000);
    EXPECT_NE(base, inj::goldenKey("abc124", "C-Ca", 800000));
    EXPECT_NE(base, inj::goldenKey("abc123", "C-Cb", 800000));
    EXPECT_NE(base, inj::goldenKey("abc123", "C-Ca", 800001));
    EXPECT_EQ(base, inj::goldenKey("abc123", "C-Ca", 800000));
}

TEST(Golden, ArchDigestSeesStateNotPath)
{
    Checkpoint a;
    a.regs[3] = 42;
    a.pc = 0x1000;
    a.seq = 100;
    a.halted = true;
    a.memory = {{0x2000, 7}, {0x3000, 9}};

    // seq is path length, not architectural state: two runs that
    // converge along different-length paths digest identically.
    Checkpoint b = a;
    b.seq = 999;
    EXPECT_EQ(inj::archDigest(a), inj::archDigest(b));

    // Memory ordering is canonicalized away.
    Checkpoint c = a;
    c.memory = {{0x3000, 9}, {0x2000, 7}};
    EXPECT_EQ(inj::archDigest(a), inj::archDigest(c));

    // Any architectural difference is seen.
    Checkpoint d = a;
    d.regs[3] ^= 1;
    EXPECT_NE(inj::archDigest(a), inj::archDigest(d));
    Checkpoint e = a;
    e.memory[0].second ^= 1ull << 63;
    EXPECT_NE(inj::archDigest(a), inj::archDigest(e));
    Checkpoint f = a;
    f.pc += 4;
    EXPECT_NE(inj::archDigest(a), inj::archDigest(f));
}

// ---------------------------------------------------------------------
// Applying flips on the cores
// ---------------------------------------------------------------------

namespace {

/** Run @p machine on C-Ca with one flip armed; the run must either
 *  complete or raise a classified SimError — never UB, never an
 *  unclassified escape. Returns the injection note. */
std::string
applyOne(const std::string &machine, inj::Target target,
         std::uint64_t index, std::uint32_t bit, Cycle cycle)
{
    auto m = validate::makeMachine(machine);
    inj::StateInjection s;
    s.target = target;
    s.index = index;
    s.bit = bit;
    s.cycle = cycle;
    EXPECT_TRUE(m->armInjection(&s, 2000000)) << machine;
    try {
        m->run(workload("C-Ca"), 800000);
    } catch (const SimError &) {
        // crash/deadlock/timeout: a legitimate classified outcome.
    }
    std::string note = m->injectionNote();
    m->armInjection(nullptr, 0);
    return note;
}

} // namespace

TEST(InjectApply, EveryTargetAppliesOnBothCores)
{
    for (const char *machine : {"sim-outorder", "sim-alpha"}) {
        std::uint64_t index = 0;
        for (inj::Target target : inj::allTargets()) {
            std::string note =
                applyOne(machine, target,
                         0x123456789abcdef0ull + index * 977, 13,
                         1000 + index * 97);
            index++;
            EXPECT_FALSE(note.empty())
                << machine << " " << inj::targetName(target);
        }
    }
}

TEST(InjectApply, StrikePastEndOfRunIsNotApplied)
{
    // A strike planned beyond the run leaves no note — the runner
    // renders it "(run ended before the strike cycle)" and the cell
    // classifies masked.
    auto m = validate::makeMachine("sim-outorder");
    inj::StateInjection s;
    s.target = inj::Target::Rob;
    s.index = 5;
    s.bit = 3;
    s.cycle = 1000000000; // far past C-Ca's ~120k cycles
    ASSERT_TRUE(m->armInjection(&s, 0));
    RunResult r = m->run(workload("C-Ca"), 800000);
    EXPECT_TRUE(r.finished);
    EXPECT_TRUE(m->injectionNote().empty()) << m->injectionNote();
    m->armInjection(nullptr, 0);
}

TEST(InjectApply, DisarmedMachineIsByteIdenticalToUntouched)
{
    auto untouched = validate::makeMachine("sim-outorder");
    RunResult ref = untouched->run(workload("C-Ca"), 800000);

    auto disarmed = validate::makeMachine("sim-outorder");
    disarmed->armInjection(nullptr, 0);
    RunResult r = disarmed->run(workload("C-Ca"), 800000);
    EXPECT_EQ(r.cycles, ref.cycles);
    EXPECT_EQ(r.instsCommitted, ref.instsCommitted);

    // Arm-run-disarm, then run again: the second run is clean.
    inj::StateInjection s;
    s.target = inj::Target::RegFile;
    s.index = 7;
    s.bit = 11;
    s.cycle = 500;
    auto recycled = validate::makeMachine("sim-outorder");
    ASSERT_TRUE(recycled->armInjection(&s, 2000000));
    try {
        recycled->run(workload("C-Ca"), 800000);
    } catch (const SimError &) {
    }
    recycled->armInjection(nullptr, 0);
    RunResult clean = recycled->run(workload("C-Ca"), 800000);
    EXPECT_EQ(clean.cycles, ref.cycles);
    EXPECT_EQ(clean.instsCommitted, ref.instsCommitted);
}

// ---------------------------------------------------------------------
// The classifying runner
// ---------------------------------------------------------------------

TEST(VulnRunner, ClassifiesEveryCellWithAValidOutcome)
{
    CampaignSpec spec = vulnCampaign(testVulnSpec());
    ExperimentRunner runner;
    CampaignResult result = runner.run(spec);
    ASSERT_EQ(result.cells.size(), 60u);
    ASSERT_EQ(result.errorCount(), 0u);

    std::vector<inj::OutcomeSample> samples;
    std::size_t masked = 0, nonMasked = 0;
    for (const CellResult &r : result.cells) {
        ASSERT_TRUE(r.ok);
        inj::Outcome outcome;
        ASSERT_TRUE(inj::outcomeByName(r.injectOutcome, &outcome))
            << "unrecognized outcome '" << r.injectOutcome << "'";
        EXPECT_FALSE(r.injectDetail.empty());
        if (outcome == inj::Outcome::Masked)
            masked++;
        else
            nonMasked++;
        samples.push_back({inj::targetName(r.cell.inject.target),
                           r.injectOutcome});
    }
    // The fixed seed yields both kinds — a campaign that only ever
    // masks proves nothing about the classifier.
    EXPECT_GT(masked, 0u);
    EXPECT_GT(nonMasked, 0u);

    // The table: per-target rows plus an "all" total, counts
    // consistent, CI present wherever the rate is defined.
    std::vector<inj::VulnRow> rows = inj::buildVulnTable(samples);
    ASSERT_FALSE(rows.empty());
    EXPECT_EQ(rows.back().target, "all");
    EXPECT_EQ(rows.back().cells, 60u);
    std::uint64_t sum = 0;
    for (const inj::VulnRow &row : rows) {
        EXPECT_EQ(row.cells, row.masked + row.sdc + row.crash +
                                 row.deadlock + row.timeout)
            << row.target;
        if (row.target != "all")
            sum += row.cells;
    }
    EXPECT_EQ(sum, 60u);
    EXPECT_GT(rows.back().nonMaskedRate, 0.0);
    EXPECT_GT(rows.back().nonMaskedCi, 0.0);

    // Renderings are deterministic and carry every row.
    std::string json = inj::vulnTableJson(rows);
    std::string csv = inj::vulnTableCsv(rows);
    for (const inj::VulnRow &row : rows) {
        EXPECT_NE(json.find("\"" + row.target + "\""),
                  std::string::npos);
        EXPECT_NE(csv.find(row.target + ","), std::string::npos);
    }
    EXPECT_EQ(json, inj::vulnTableJson(rows));
}

TEST(VulnRunner, InjectedAndSampledCellIsRejected)
{
    CampaignSpec spec = vulnCampaign(testVulnSpec());
    spec.cells.resize(1);
    spec.cells[0].sample.windows = 3;
    spec.cells[0].sample.len = 300;
    ExperimentRunner runner;
    CampaignResult result = runner.run(spec);
    ASSERT_EQ(result.cells.size(), 1u);
    EXPECT_FALSE(result.cells[0].ok);
    EXPECT_EQ(result.cells[0].errorClass, "config");
}

TEST(VulnRunner, ZeroInjectionArtifactsCarryNoInjectionFields)
{
    // The byte-identity guarantee for everything that predates this
    // subsystem: no "inject" keys in journals, JSON, or CSV unless a
    // cell actually injects.
    CampaignSpec spec;
    spec.name = "plain";
    spec.cells.push_back(
        {"sim-outorder", Optimization::None, "C-Ca", 2000, 0});
    ExperimentRunner runner;
    CampaignResult result = runner.run(spec);
    ASSERT_EQ(result.errorCount(), 0u);

    EXPECT_EQ(toJson(result).find("inject"), std::string::npos);
    EXPECT_EQ(toCsv(result).find("inject"), std::string::npos);
    EXPECT_EQ(journalLine("plain", result.cells[0]).find("inject"),
              std::string::npos);

    // And the journal line still parses back to the same cell.
    CellResult back;
    std::string key;
    ASSERT_TRUE(parseJournalLine(journalLine("plain", result.cells[0]),
                                 "plain", &back, &key));
    EXPECT_EQ(key, journalKey(result.cells[0].cell));
    EXPECT_TRUE(back.injectOutcome.empty());
}

TEST(VulnRunner, InjectedJournalLinesRoundTrip)
{
    VulnSpec vs = testVulnSpec();
    vs.cells = 4;
    CampaignSpec spec = vulnCampaign(vs);
    ExperimentRunner runner;
    CampaignResult result = runner.run(spec);
    ASSERT_EQ(result.errorCount(), 0u);
    for (const CellResult &r : result.cells) {
        std::string line = journalLine(spec.name, r);
        EXPECT_NE(line.find("\"inject\""), std::string::npos);
        CellResult back;
        std::string key;
        ASSERT_TRUE(parseJournalLine(line, spec.name, &back, &key));
        EXPECT_EQ(back.injectOutcome, r.injectOutcome);
        EXPECT_EQ(back.injectDetail, r.injectDetail);
        // Re-serialization is byte-identical — resume depends on it.
        back.cell = r.cell;
        EXPECT_EQ(journalLine(spec.name, back), line);
    }
}

// ---------------------------------------------------------------------
// Determinism: thread vs. shards vs. warm store vs. resume
// ---------------------------------------------------------------------

TEST(VulnProc, ShardedWarmAndResumedRunsAreByteIdentical)
{
    VulnSpec vs = testVulnSpec();
    CampaignSpec spec = vulnCampaign(vs);
    std::string root = uniqueDir("drill");
    RemoveOnExit cleanup{{root}};
    std::string store = root + "/store";
    fs::create_directories(root);

    // Cold run under process isolation, 3 shards.
    LaunchOptions po;
    po.campaign = spec.name;
    po.shards = 3;
    po.workerBinary = SIMALPHA_BIN;
    po.storePath = store;
    po.backoffSeconds = 0.01;
    po.journalPath = root + "/master.journal";
    LaunchOutcome cold = superviseCampaign(po);
    ASSERT_FALSE(cold.interrupted);
    ASSERT_EQ(cold.result.errorCount(), 0u);
    std::string ref = toJson(cold.result);

    // Thread-mode rerun against the same store: byte-identical, every
    // cell (and its golden) served from the store.
    RunnerOptions to;
    to.storePath = store;
    ExperimentRunner warm(to);
    CampaignResult warmResult = warm.run(spec);
    EXPECT_EQ(toJson(warmResult), ref);
    EXPECT_GE(warm.storeCounters().hits, spec.cells.size());
    EXPECT_EQ(warm.storeCounters().publishes, 0u);

    // Resume from the master journal: everything replays, nothing
    // recomputes, bytes identical.
    po.resume = true;
    LaunchOutcome resumed = superviseCampaign(po);
    ASSERT_FALSE(resumed.interrupted);
    EXPECT_EQ(resumed.replayedCells, spec.cells.size());
    EXPECT_EQ(toJson(resumed.result), ref);
}
