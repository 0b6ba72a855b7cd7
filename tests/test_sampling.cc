/**
 * @file
 * The checkpoint-sampled simulation subsystem (`ctest -L checkpoint`).
 *
 * Four layers are covered:
 *  - the checkpoint library alone: blob serialization round-trips
 *    byte-identically and rejects corruption, program hashing keys
 *    workloads not machines, window planning, the Student-t table and
 *    the closed-form confidence-interval fixture;
 *  - the cores: a window restored from the offset-0 checkpoint with
 *    zero warm-up is byte-identical to run() on both detailed cores,
 *    machine reuse across windows is byte-identical, and a mid-run
 *    window measures exactly the requested region;
 *  - the runner: sampled cells carry the statistics, unsampled
 *    artifacts stay byte-identical to the pre-sampling format, and a
 *    sampled campaign is byte-identical across --jobs, --resume, a
 *    warm store rerun, and process isolation (real simalpha workers);
 *  - the methodology: the sampled mean IPC of a capped workload falls
 *    within its own reported 95% error bar of the full detailed run —
 *    the paper-§2.3 claim the subsystem exists to make measurable.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "checkpoint/checkpoint.hh"
#include "isa/emulator.hh"
#include "runner/artifacts.hh"
#include "runner/campaign.hh"
#include "runner/journal.hh"
#include "runner/runner.hh"
#include "runner/supervisor.hh"
#include "store/store.hh"
#include "validate/machines.hh"

namespace fs = std::filesystem;

using namespace simalpha;
using namespace simalpha::runner;
namespace ck = simalpha::checkpoint;

using simalpha::store::ResultStore;
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
    std::string dir = testing::TempDir() + "simalpha-sampling-" + stem +
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

/** A one-cell campaign, the unit of the statistical tests. */
CampaignSpec
singleCell(const std::string &machine, const std::string &work,
           std::uint64_t max_insts, const ck::SampleSpec &sample)
{
    CampaignSpec spec;
    spec.name = "stat";
    spec.cells.push_back(
        {machine, Optimization::None, work, max_insts, 0, sample});
    return spec;
}

} // namespace

// ---------------------------------------------------------------------
// Sample spec: parse / format
// ---------------------------------------------------------------------

TEST(SampleSpec, ParsesAndFormatsCanonically)
{
    ck::SampleSpec s;
    std::string error;
    ASSERT_TRUE(
        ck::parseSampleSpec("windows=5,len=1000,warmup=200", &s, &error))
        << error;
    EXPECT_EQ(s.windows, 5u);
    EXPECT_EQ(s.len, 1000u);
    EXPECT_EQ(s.warmup, 200u);
    EXPECT_TRUE(s.enabled());
    EXPECT_EQ(ck::formatSampleSpec(s), "windows=5,len=1000,warmup=200");

    // warmup is optional and defaults to 0.
    ck::SampleSpec t;
    ASSERT_TRUE(ck::parseSampleSpec("windows=3,len=64", &t, &error));
    EXPECT_EQ(t.warmup, 0u);

    // The canonical form round-trips through its own parser.
    ck::SampleSpec u;
    ASSERT_TRUE(
        ck::parseSampleSpec(ck::formatSampleSpec(t), &u, &error));
    EXPECT_TRUE(t == u);
}

TEST(SampleSpec, RejectsMalformedSpecs)
{
    ck::SampleSpec s;
    std::string error;
    for (const char *bad : {
             "",                        // empty
             "windows=5",               // len missing
             "windows=5,len=0",         // measuring nothing
             "windows=x,len=10",        // non-numeric
             "windows=5,len=10,bogus=1",// unknown key
             "windows=5 len=10",        // wrong separator
             "len=10,warmup=5",         // windows missing
         }) {
        error.clear();
        EXPECT_FALSE(ck::parseSampleSpec(bad, &s, &error)) << bad;
        EXPECT_FALSE(error.empty()) << bad;
    }
}

// ---------------------------------------------------------------------
// Checkpoint blobs: serialization round-trip and corruption
// ---------------------------------------------------------------------

TEST(CheckpointBlob, RoundTripsByteIdentically)
{
    Program p = workload("C-Ca");
    Emulator emu(p);
    for (int i = 0; i < 700; i++)
        emu.step();
    Checkpoint ckpt = emu.checkpoint();

    std::string blob = ck::serializeCheckpoint(ckpt);
    EXPECT_EQ(blob.find('\n'), std::string::npos)
        << "store payloads must be single lines";

    Checkpoint back;
    std::string error;
    ASSERT_TRUE(ck::parseCheckpoint(blob, &back, &error)) << error;
    EXPECT_EQ(back.pc, ckpt.pc);
    EXPECT_EQ(back.seq, ckpt.seq);
    EXPECT_EQ(back.halted, ckpt.halted);
    // Byte-identity of the re-serialization is the full-state check:
    // it covers every register and every dirty memory word.
    EXPECT_EQ(ck::serializeCheckpoint(back), blob);

    // The restored emulator continues exactly like the original.
    Emulator fresh(p);
    fresh.restore(back);
    for (int i = 0; i < 50; i++) {
        ExecutedInst a = emu.step();
        ExecutedInst b = fresh.step();
        ASSERT_EQ(a.pc, b.pc);
        ASSERT_EQ(a.nextPc, b.nextPc);
    }
}

TEST(CheckpointBlob, CorruptBlobReadsAsErrorNeverAsState)
{
    Program p = workload("C-Ca");
    Emulator emu(p);
    for (int i = 0; i < 100; i++)
        emu.step();
    std::string blob = ck::serializeCheckpoint(emu.checkpoint());

    Checkpoint out;
    std::string error;
    for (const std::string &bad : {
             std::string("ckpt2") + blob.substr(5), // wrong magic
             blob.substr(0, blob.size() / 2),       // truncated
             blob + " trailing=1",                  // trailing garbage
             std::string("ckpt1 pc=zz seq=0 halted=0 regs= mem="),
             std::string(),                         // empty
         }) {
        error.clear();
        EXPECT_FALSE(ck::parseCheckpoint(bad, &out, &error));
        EXPECT_FALSE(error.empty());
    }
}

TEST(CheckpointBlob, ProgramHashKeysWorkloadIdentity)
{
    Program a = workload("C-Ca");
    Program b = workload("C-Cb");
    EXPECT_EQ(ck::programHash(a), ck::programHash(workload("C-Ca")));
    EXPECT_NE(ck::programHash(a), ck::programHash(b));

    // Keys embed the hash and the offset; different offsets and
    // different programs never collide textually.
    EXPECT_NE(ck::checkpointKey(a, 100), ck::checkpointKey(a, 200));
    EXPECT_NE(ck::checkpointKey(a, 100), ck::checkpointKey(b, 100));
    EXPECT_NE(ck::checkpointKey(a, 100), ck::metaKey(a, 100));
}

TEST(CheckpointBlob, MetaRoundTrips)
{
    ck::FastForwardInfo info;
    info.totalInsts = 123456789;
    info.finished = true;
    ck::FastForwardInfo back;
    ASSERT_TRUE(ck::parseMeta(ck::serializeMeta(info), &back));
    EXPECT_EQ(back.totalInsts, info.totalInsts);
    EXPECT_EQ(back.finished, info.finished);

    EXPECT_FALSE(ck::parseMeta("", &back));
    EXPECT_FALSE(ck::parseMeta("ffwd2 total=1 finished=0", &back));
    EXPECT_FALSE(ck::parseMeta("ffwd1 total=x finished=0", &back));
}

// ---------------------------------------------------------------------
// Window planning and statistics
// ---------------------------------------------------------------------

TEST(WindowPlan, PlacesEvenlySpacedClampedWindows)
{
    ck::SampleSpec s;
    s.windows = 4;
    s.len = 1000;
    s.warmup = 300;

    std::vector<ck::WindowPlan> plan = ck::planWindows(100000, s);
    ASSERT_EQ(plan.size(), 4u);
    for (std::size_t i = 0; i < plan.size(); i++) {
        EXPECT_EQ(plan[i].measure, 1000u);
        // Warm-up never reaches before the program start.
        EXPECT_LE(plan[i].warmup, s.warmup);
        EXPECT_LE(plan[i].warmup, plan[i].checkpointAt + plan[i].warmup);
        // The measured region stays inside the run.
        EXPECT_LE(plan[i].checkpointAt + plan[i].warmup + plan[i].measure,
                  100000u);
        if (i) {
            EXPECT_GT(plan[i].checkpointAt, plan[i - 1].checkpointAt);
        }
    }
    // The first window starts at the beginning of the run (offset 0
    // cannot afford a full warm-up, so it is clamped).
    EXPECT_EQ(plan[0].checkpointAt + plan[0].warmup, 0u);

    // A workload shorter than the requested coverage yields fewer,
    // never empty, windows.
    std::vector<ck::WindowPlan> tiny = ck::planWindows(1500, s);
    ASSERT_FALSE(tiny.empty());
    EXPECT_LE(tiny.size(), 4u);
    for (const ck::WindowPlan &w : tiny) {
        EXPECT_GT(w.measure, 0u);
        EXPECT_LE(w.checkpointAt + w.warmup + w.measure, 1500u);
    }

    // Determinism: same inputs, same plan.
    std::vector<ck::WindowPlan> again = ck::planWindows(100000, s);
    ASSERT_EQ(again.size(), plan.size());
    for (std::size_t i = 0; i < plan.size(); i++) {
        EXPECT_EQ(again[i].checkpointAt, plan[i].checkpointAt);
        EXPECT_EQ(again[i].warmup, plan[i].warmup);
        EXPECT_EQ(again[i].measure, plan[i].measure);
    }
}

TEST(SampleStatistics, TCriticalMatchesTheTable)
{
    EXPECT_DOUBLE_EQ(ck::tCritical95(1), 12.706);
    EXPECT_DOUBLE_EQ(ck::tCritical95(2), 4.303);
    EXPECT_DOUBLE_EQ(ck::tCritical95(4), 2.776);
    EXPECT_DOUBLE_EQ(ck::tCritical95(10), 2.228);
    EXPECT_DOUBLE_EQ(ck::tCritical95(30), 2.042);
    EXPECT_DOUBLE_EQ(ck::tCritical95(31), 1.960);
    EXPECT_DOUBLE_EQ(ck::tCritical95(1000), 1.960);
    EXPECT_DOUBLE_EQ(ck::tCritical95(0), 0.0);
}

TEST(SampleStatistics, ClosedFormFixture)
{
    // {1,2,3,4,5}: mean 3, sample variance 2.5, n=5 → df=4 → t=2.776.
    ck::SampleStats s = ck::sampleStats({1.0, 2.0, 3.0, 4.0, 5.0});
    EXPECT_EQ(s.n, 5u);
    EXPECT_DOUBLE_EQ(s.mean, 3.0);
    EXPECT_NEAR(s.stddev, std::sqrt(2.5), 1e-12);
    EXPECT_NEAR(s.ciHalf, 2.776 * std::sqrt(2.5 / 5.0), 1e-12);

    // Degenerate sizes: no spread, never NaN.
    ck::SampleStats one = ck::sampleStats({1.75});
    EXPECT_EQ(one.n, 1u);
    EXPECT_DOUBLE_EQ(one.mean, 1.75);
    EXPECT_DOUBLE_EQ(one.stddev, 0.0);
    EXPECT_DOUBLE_EQ(one.ciHalf, 0.0);
    ck::SampleStats zero = ck::sampleStats({});
    EXPECT_EQ(zero.n, 0u);
    EXPECT_DOUBLE_EQ(zero.mean, 0.0);

    // Identical samples: zero-width interval.
    ck::SampleStats flat = ck::sampleStats({2.0, 2.0, 2.0, 2.0});
    EXPECT_DOUBLE_EQ(flat.mean, 2.0);
    EXPECT_DOUBLE_EQ(flat.ciHalf, 0.0);
}

// ---------------------------------------------------------------------
// Cores: window-from-checkpoint equivalence
// ---------------------------------------------------------------------

TEST(WindowEquivalence, CheckpointZeroWindowEqualsRunOnBothCores)
{
    Program p = workload("C-Ca");
    Emulator emu(p);
    Checkpoint start = emu.checkpoint(); // offset 0

    for (const char *name : {"sim-alpha", "sim-outorder"}) {
        auto full = validate::makeMachine(name);
        auto windowed = validate::makeMachine(name);
        ASSERT_TRUE(full && windowed) << name;

        RunResult ref = full->run(p, 20000);
        RunResult win = windowed->runWindow(p, start, 0, 20000);
        EXPECT_EQ(win.cycles, ref.cycles) << name;
        EXPECT_EQ(win.instsCommitted, ref.instsCommitted) << name;
        EXPECT_EQ(win.finished, ref.finished) << name;
    }
}

TEST(WindowEquivalence, MachineReuseAcrossWindowsIsByteIdentical)
{
    Program p = workload("C-Ca");
    ck::FastForwardInfo info = ck::fastForward(p, 20000);
    ASSERT_GT(info.totalInsts, 4000u);

    std::vector<Checkpoint> ckpts;
    std::string error;
    ASSERT_TRUE(ck::collectCheckpoints(p, {info.totalInsts / 2},
                                       nullptr, &ckpts, &error))
        << error;

    for (const char *name : {"sim-alpha", "sim-outorder"}) {
        auto machine = validate::makeMachine(name);
        ASSERT_TRUE(machine) << name;
        std::map<std::string, std::uint64_t> c1, c2;
        RunResult a = machine->runWindow(p, ckpts[0], 500, 1000, &c1);
        RunResult b = machine->runWindow(p, ckpts[0], 500, 1000, &c2);
        EXPECT_EQ(a.cycles, b.cycles) << name;
        EXPECT_EQ(a.instsCommitted, b.instsCommitted) << name;
        EXPECT_EQ(c1, c2) << name;
    }
}

TEST(WindowEquivalence, MidRunWindowMeasuresExactlyTheRequestedRegion)
{
    Program p = workload("C-Ca");
    ck::FastForwardInfo info = ck::fastForward(p, 20000);
    std::uint64_t mid = info.totalInsts / 2;
    ASSERT_GT(info.totalInsts, mid + 1600);

    std::vector<Checkpoint> ckpts;
    std::string error;
    ASSERT_TRUE(
        ck::collectCheckpoints(p, {mid}, nullptr, &ckpts, &error))
        << error;
    EXPECT_EQ(ckpts[0].seq, mid);

    auto machine = validate::makeMachine("sim-alpha");
    RunResult win = machine->runWindow(p, ckpts[0], 500, 1000);
    // The program neither halts nor caps inside this window, so the
    // measured region is exactly the requested 1000 instructions and
    // warm-up instructions are excluded from it.
    EXPECT_EQ(win.instsCommitted, 1000u);
    EXPECT_FALSE(win.finished);
    EXPECT_GT(win.cycles, 0u);
}

// ---------------------------------------------------------------------
// Checkpoints through the store
// ---------------------------------------------------------------------

TEST(CheckpointStore, CollectedCheckpointsRoundTripByteIdentically)
{
    Program p = workload("C-Ca");
    ck::FastForwardInfo info = ck::fastForward(p, 0);
    ASSERT_TRUE(info.finished);
    std::vector<std::uint64_t> offsets = {0, info.totalInsts / 4,
                                          info.totalInsts / 2};

    // Generated in-process, no store.
    std::vector<Checkpoint> direct;
    std::string error;
    ASSERT_TRUE(
        ck::collectCheckpoints(p, offsets, nullptr, &direct, &error))
        << error;
    ASSERT_EQ(direct.size(), offsets.size());

    // Cold through a store: generated once, published.
    std::string root = uniqueDir("ckpt-store");
    RemoveOnExit cleanup{{root}};
    ResultStore store;
    ASSERT_TRUE(store.open(root, &error)) << error;
    std::vector<Checkpoint> cold;
    ASSERT_TRUE(
        ck::collectCheckpoints(p, offsets, &store, &cold, &error))
        << error;

    // Warm: every checkpoint restored from disk, none regenerated.
    std::vector<Checkpoint> warm;
    ASSERT_TRUE(
        ck::collectCheckpoints(p, offsets, &store, &warm, &error))
        << error;

    for (std::size_t i = 0; i < offsets.size(); i++) {
        EXPECT_EQ(direct[i].seq, offsets[i]);
        std::string want = ck::serializeCheckpoint(direct[i]);
        EXPECT_EQ(ck::serializeCheckpoint(cold[i]), want);
        EXPECT_EQ(ck::serializeCheckpoint(warm[i]), want);
        // The blob is on disk under its key.
        std::string payload;
        EXPECT_TRUE(
            store.lookup(ck::checkpointKey(p, offsets[i]), &payload));
        EXPECT_EQ(payload, want);
    }

    // An offset past the program's halt is an invariant failure, not
    // a silent short checkpoint.
    std::vector<Checkpoint> beyond;
    error.clear();
    EXPECT_FALSE(ck::collectCheckpoints(p, {info.totalInsts + 1},
                                        nullptr, &beyond, &error));
    EXPECT_FALSE(error.empty());
}

// ---------------------------------------------------------------------
// Runner: sampled campaigns
// ---------------------------------------------------------------------

TEST(SampledRunner, SampledCellsCarryStatsAndDistinctSeeds)
{
    ck::SampleSpec sample;
    sample.windows = 4;
    sample.len = 300;
    sample.warmup = 100;

    Cell plain{"sim-outorder", Optimization::None, "C-Ca", 2000, 0, {}};
    Cell sampled = plain;
    sampled.sample = sample;
    // Sampled variants of a cell get their own identity; a disabled
    // spec leaves the historical seed untouched.
    EXPECT_NE(cellSeed(plain), cellSeed(sampled));
    EXPECT_EQ(cellSeed(plain), cellSeed(Cell{"sim-outorder",
                                             Optimization::None, "C-Ca",
                                             2000, 0, {}}));
    EXPECT_NE(journalKey(plain), journalKey(sampled));

    ExperimentRunner runner;
    CampaignResult r =
        runner.run(smokeCampaign().withSampling(sample));
    ASSERT_EQ(r.errorCount(), 0u);
    for (const CellResult &cell : r.cells) {
        EXPECT_GT(cell.sampleWindows, 0u);
        EXPECT_LE(cell.sampleWindows, sample.windows);
        EXPECT_GT(cell.sampleTotalInsts, 0u);
        EXPECT_GT(cell.sampleIpcMean, 0.0);
        EXPECT_GT(cell.instsCommitted, 0u);
        // Measured instructions never exceed what the windows cover
        // (a window's last cycle may overshoot by up to the commit
        // width minus one).
        EXPECT_LE(cell.instsCommitted,
                  cell.sampleWindows * (sample.len + 4));
    }

    // The artifacts surface the sampling fields...
    std::string json = toJson(r);
    EXPECT_NE(json.find("\"sample\""), std::string::npos);
    EXPECT_NE(json.find("\"sample_ipc_mean\""), std::string::npos);
    EXPECT_NE(json.find("\"sample_ipc_ci\""), std::string::npos);
    std::string csv = toCsv(r);
    EXPECT_NE(csv.find("sample_ipc_ci"), std::string::npos);
    EXPECT_NE(csv.find("windows=4,len=300,warmup=100"),
              std::string::npos);

    // ...and an unsampled campaign's JSON stays free of them, so the
    // historical artifact bytes (and golden tables) are untouched.
    ExperimentRunner plainRunner;
    std::string plainJson = toJson(plainRunner.run(smokeCampaign()));
    EXPECT_EQ(plainJson.find("\"sample\""), std::string::npos);
    EXPECT_EQ(plainJson.find("sample_ipc"), std::string::npos);
}

TEST(SampledRunner, JobsSweepIsByteIdentical)
{
    ck::SampleSpec sample;
    sample.windows = 4;
    sample.len = 300;
    sample.warmup = 100;
    CampaignSpec spec = smokeCampaign().withSampling(sample);

    RunnerOptions serial;
    serial.jobs = 1;
    ExperimentRunner a(serial);
    std::string ref = toJson(a.run(spec));

    RunnerOptions parallel;
    parallel.jobs = 4;
    ExperimentRunner b(parallel);
    EXPECT_EQ(toJson(b.run(spec)), ref);
}

TEST(SampledRunner, ResumeFromJournalIsByteIdentical)
{
    ck::SampleSpec sample;
    sample.windows = 3;
    sample.len = 300;
    sample.warmup = 100;
    CampaignSpec spec = smokeCampaign().withSampling(sample);
    std::string journal = uniqueDir("resume") + ".jsonl";
    RemoveOnExit cleanup{{journal, journal + ".shards.d"}};

    RunnerOptions first;
    first.journalPath = journal;
    ExperimentRunner a(first);
    std::string ref = toJson(a.run(spec));

    RunnerOptions second;
    second.journalPath = journal;
    second.resume = true;
    ExperimentRunner b(second);
    CampaignResult resumed = b.run(spec);
    EXPECT_EQ(toJson(resumed), ref);
    for (const CellResult &cell : resumed.cells)
        EXPECT_TRUE(cell.fromJournal);
}

TEST(SampledRunner, JournalLineRoundTripsSampleFields)
{
    ck::SampleSpec sample;
    sample.windows = 3;
    sample.len = 300;
    sample.warmup = 100;

    ExperimentRunner runner;
    CampaignResult r = runner.run(
        singleCell("sim-outorder", "C-Ca", 2000, sample));
    ASSERT_EQ(r.errorCount(), 0u);
    const CellResult &cell = r.cells[0];

    std::string line = journalLine("stat", cell);
    CellResult back;
    std::string key;
    ASSERT_TRUE(parseJournalLine(line, "stat", &back, &key));
    EXPECT_EQ(key, journalKey(cell.cell));
    EXPECT_TRUE(back.cell.sample == cell.cell.sample);
    EXPECT_EQ(back.sampleWindows, cell.sampleWindows);
    EXPECT_EQ(back.sampleTotalInsts, cell.sampleTotalInsts);
    // The statistics travel as fixed-point text with 6 decimals, so
    // the parsed doubles agree to that precision...
    EXPECT_NEAR(back.sampleIpcMean, cell.sampleIpcMean, 1e-6);
    EXPECT_NEAR(back.sampleIpcStddev, cell.sampleIpcStddev, 1e-6);
    EXPECT_NEAR(back.sampleIpcCi, cell.sampleIpcCi, 1e-6);
    // ...and the re-serialization is byte-identical — resumed and
    // uninterrupted campaigns depend on it.
    EXPECT_EQ(journalLine("stat", back), line);
}

TEST(SampledRunner, WarmStoreRerunIsByteIdentical)
{
    ck::SampleSpec sample;
    sample.windows = 3;
    sample.len = 300;
    sample.warmup = 100;
    CampaignSpec spec = smokeCampaign().withSampling(sample);
    std::string root = uniqueDir("warm-store");
    RemoveOnExit cleanup{{root}};

    RunnerOptions opts;
    opts.storePath = root;
    ExperimentRunner cold(opts);
    std::string ref = toJson(cold.run(spec));
    ASSERT_TRUE(cold.storeOpen());
    EXPECT_GT(cold.storeCounters().publishes, 0u);

    ExperimentRunner warm(opts);
    EXPECT_EQ(toJson(warm.run(spec)), ref);
    // Every cell hits its result entry (sampled cells read and write
    // no checkpoint entries); nothing is recomputed or republished.
    EXPECT_GE(warm.storeCounters().hits, spec.cells.size());
    EXPECT_EQ(warm.storeCounters().publishes, 0u);
}

TEST(SampledProc, ProcessIsolationMatchesThreadRunner)
{
    ck::SampleSpec sample;
    sample.windows = 3;
    sample.len = 300;
    sample.warmup = 100;

    ExperimentRunner thread;
    std::string ref = toJson(thread.run(
        smokeCampaign().withSampling(sample)));

    LaunchOptions opts;
    opts.campaign = "smoke";
    opts.sample = sample;
    opts.shards = 2;
    opts.workerBinary = SIMALPHA_BIN;
    opts.backoffSeconds = 0.01;
    LaunchOutcome proc = superviseCampaign(opts);
    ASSERT_FALSE(proc.interrupted);
    ASSERT_EQ(proc.result.errorCount(), 0u);
    EXPECT_EQ(toJson(proc.result), ref);
}

// ---------------------------------------------------------------------
// Methodology: the sampled mean falls inside its own error bar
// ---------------------------------------------------------------------

namespace {

/** Full detailed IPC of @p machine on @p work capped at @p cap. */
double
fullIpc(const std::string &machine, const std::string &work,
        std::uint64_t cap)
{
    auto m = validate::makeMachine(machine);
    RunResult r = m->run(workload(work), cap);
    EXPECT_GT(r.cycles, 0u);
    return double(r.instsCommitted) / double(r.cycles);
}

void
expectWithinOwnErrorBar(const std::string &machine,
                        const ck::SampleSpec &sample)
{
    const std::uint64_t cap = 20000;
    double full = fullIpc(machine, "C-Ca", cap);

    ExperimentRunner runner;
    CampaignResult r =
        runner.run(singleCell(machine, "C-Ca", cap, sample));
    ASSERT_EQ(r.errorCount(), 0u);
    const CellResult &cell = r.cells[0];

    EXPECT_EQ(cell.sampleWindows, sample.windows);
    EXPECT_EQ(cell.sampleTotalInsts, ck::fastForward(workload("C-Ca"),
                                                     cap).totalInsts);
    // A real spread and a nonzero bar — a zero-width interval would
    // make the "within the bar" claim vacuous.
    EXPECT_GT(cell.sampleIpcCi, 0.0) << machine;
    EXPECT_LT(cell.sampleIpcCi, cell.sampleIpcMean) << machine;

    // The paper-§2.3 claim: the sampled estimate agrees with the full
    // detailed run within its own reported 95% confidence interval.
    EXPECT_LE(std::abs(cell.sampleIpcMean - full), cell.sampleIpcCi)
        << machine << ": mean " << cell.sampleIpcMean << " ± "
        << cell.sampleIpcCi << " vs full " << full;
}

} // namespace

TEST(SamplingError, SampledMeanWithinErrorBarSimAlpha)
{
    ck::SampleSpec sample;
    sample.windows = 5;
    sample.len = 1000;
    sample.warmup = 1000;
    expectWithinOwnErrorBar("sim-alpha", sample);
}

TEST(SamplingError, SampledMeanWithinErrorBarSimOutorder)
{
    ck::SampleSpec sample;
    sample.windows = 8;
    sample.len = 500;
    sample.warmup = 500;
    expectWithinOwnErrorBar("sim-outorder", sample);
}
