#include "runner/perfbench.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <vector>

#include "common/error.hh"
#include "common/flags.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/number.hh"
#include "isa/emulator.hh"
#include "runner/artifacts.hh"
#include "runner/campaign.hh"
#include "runner/runner.hh"

#ifndef SIMALPHA_BUILD_TYPE
#define SIMALPHA_BUILD_TYPE "unknown"
#endif

namespace simalpha {
namespace runner {

namespace {

// ---------------------------------------------------------------
// Measurement
// ---------------------------------------------------------------

double
elapsedSeconds(std::chrono::steady_clock::time_point t0,
               std::chrono::steady_clock::time_point t1)
{
    return std::chrono::duration<double>(t1 - t0).count();
}

void
finishPath(PerfPath *p)
{
    p->ips = p->seconds > 0.0 ? double(p->insts) / p->seconds : 0.0;
}

/** Time the Table-3 cells of one machine, serially and uncached. */
bool
timeMachinePath(const CampaignSpec &t3, const char *machine,
                PerfPath *out, std::string *error)
{
    CampaignSpec s;
    s.name = std::string("perf-") + machine;
    for (const Cell &c : t3.cells)
        if (c.machine == machine)
            s.cells.push_back(c);

    RunnerOptions ro;
    ro.jobs = 1;
    ro.cache = false;
    ExperimentRunner rnr(ro);

    auto t0 = std::chrono::steady_clock::now();
    CampaignResult cr = rnr.run(s);
    auto t1 = std::chrono::steady_clock::now();

    std::uint64_t insts = 0;
    for (const CellResult &r : cr.cells) {
        if (!r.ok) {
            *error = std::string(machine) + "/" + r.cell.workload +
                     " failed: " + r.error;
            return false;
        }
        insts += r.instsCommitted;
    }
    out->insts = insts;
    out->seconds = elapsedSeconds(t0, t1);
    finishPath(out);
    return true;
}

/**
 * Time checkpoint-sampled sim-alpha over the Table-3 workloads at 10x
 * the detailed cap. `insts` counts the instructions the sampled cells
 * *represent* (their functional fast-forward length), so the resulting
 * ips is the effective rate of the sampled methodology — fast-forward,
 * checkpoint generation, and detailed windows included. No store is
 * attached: every checkpoint is generated in-process, the worst case.
 */
bool
timeSampledPath(const CampaignSpec &t3, std::uint64_t max_insts,
                PerfPath *out, std::string *error)
{
    CampaignSpec s;
    s.name = "perf-sampled";
    for (const Cell &c : t3.cells)
        if (c.machine == "sim-alpha")
            s.cells.push_back(c);

    checkpoint::SampleSpec spec;
    spec.windows = 5;
    spec.len = std::max<std::uint64_t>(max_insts / 10, 500);
    spec.warmup = spec.len / 2;
    s = s.withMaxInsts(max_insts * 10).withSampling(spec);

    RunnerOptions ro;
    ro.jobs = 1;
    ro.cache = false;
    ExperimentRunner rnr(ro);

    auto t0 = std::chrono::steady_clock::now();
    CampaignResult cr = rnr.run(s);
    auto t1 = std::chrono::steady_clock::now();

    std::uint64_t insts = 0;
    for (const CellResult &r : cr.cells) {
        if (!r.ok) {
            *error = "sampled sim-alpha/" + r.cell.workload +
                     " failed: " + r.error;
            return false;
        }
        insts += r.sampleTotalInsts;
    }
    out->insts = insts;
    out->seconds = elapsedSeconds(t0, t1);
    finishPath(out);
    return true;
}

/**
 * The injection-overhead row: the detailed sim-alpha cells again, on
 * a core that has explicitly seen armInjection(nullptr) — the
 * disarmed state every plain campaign runs in. The per-cycle hook is
 * one predicted-not-taken branch, so this must match the detailed
 * row within run-to-run noise. Machine construction and workload
 * generation stay outside the timed region, like the runner's pool.
 */
bool
timeInjectIdlePath(const CampaignSpec &t3, PerfPath *out,
                   std::string *error)
{
    std::vector<Program> progs;
    std::vector<std::uint64_t> caps;
    for (const Cell &c : t3.cells) {
        if (c.machine != "sim-alpha")
            continue;
        Program p;
        if (!buildWorkload(c.workload, &p, error))
            return false;
        progs.push_back(std::move(p));
        caps.push_back(c.maxInsts);
    }
    std::unique_ptr<Machine> machine = validate::tryMakeMachine(
        "sim-alpha", validate::Optimization::None, error);
    if (!machine)
        return false;

    std::uint64_t insts = 0;
    auto t0 = std::chrono::steady_clock::now();
    try {
        for (std::size_t i = 0; i < progs.size(); i++) {
            machine->armInjection(nullptr, 0);
            RunResult r = machine->run(progs[i], caps[i]);
            insts += r.instsCommitted;
        }
    } catch (const SimError &e) {
        *error = std::string("inject-idle run failed: ") + e.what();
        return false;
    }
    auto t1 = std::chrono::steady_clock::now();
    out->insts = insts;
    out->seconds = elapsedSeconds(t0, t1);
    finishPath(out);
    return true;
}

/** The emulator paths run the workload set several times and keep the
 *  fastest pass: a single capped pass is a few milliseconds at
 *  emulator speed, and on a shared machine scheduler noise and
 *  frequency throttling swamp it. Interference is strictly one-sided
 *  (it only ever slows a pass down), so the best pass is the least
 *  contaminated estimate of the code's real rate, and using the same
 *  estimator for the pinned baseline and the smoke gate keeps their
 *  ratio meaningful. */
constexpr int kEmulatorBenchPasses = 10;

/** Keep (insts, seconds) of the fastest pass seen so far. */
void
keepBestPass(std::uint64_t insts,
             std::chrono::steady_clock::time_point t0,
             std::chrono::steady_clock::time_point t1, PerfPath *out)
{
    double seconds = elapsedSeconds(t0, t1);
    if (out->seconds == 0.0 ||
        (seconds > 0.0 &&
         double(insts) / seconds > double(out->insts) / out->seconds)) {
        out->insts = insts;
        out->seconds = seconds;
    }
}

/** Time the raw functional Emulator over the same workload set. */
bool
timeEmulatorPath(const CampaignSpec &t3, std::uint64_t max_insts,
                 PerfPath *out, std::string *error)
{
    std::vector<std::string> names;
    for (const Cell &c : t3.cells)
        if (std::find(names.begin(), names.end(), c.workload) ==
            names.end())
            names.push_back(c.workload);

    std::vector<Program> progs;
    for (const std::string &n : names) {
        Program p;
        if (!buildWorkload(n, &p, error))
            return false;
        progs.push_back(p);
    }

    *out = PerfPath{};
    for (int pass = 0; pass < kEmulatorBenchPasses; pass++) {
        std::uint64_t insts = 0;
        auto t0 = std::chrono::steady_clock::now();
        for (const Program &p : progs) {
            Emulator emu(p);
            std::uint64_t n = 0;
            while (!emu.halted() &&
                   (max_insts == 0 || n < max_insts)) {
                emu.step();
                n++;
            }
            insts += n;
        }
        auto t1 = std::chrono::steady_clock::now();
        keepBestPass(insts, t0, t1, out);
    }
    finishPath(out);
    return true;
}

/** The predecoded batch loop over the same workloads: run() amortizes
 *  fetch/dispatch across whole batches, so this row is the emulator's
 *  raw-dispatch ceiling. */
bool
timeEmuPrePath(const CampaignSpec &t3, std::uint64_t max_insts,
               PerfPath *out, std::string *error)
{
    std::vector<std::string> names;
    for (const Cell &c : t3.cells)
        if (std::find(names.begin(), names.end(), c.workload) ==
            names.end())
            names.push_back(c.workload);

    std::vector<Program> progs;
    for (const std::string &n : names) {
        Program p;
        if (!buildWorkload(n, &p, error))
            return false;
        progs.push_back(p);
    }

    *out = PerfPath{};
    for (int pass = 0; pass < kEmulatorBenchPasses; pass++) {
        std::uint64_t insts = 0;
        auto t0 = std::chrono::steady_clock::now();
        for (const Program &p : progs) {
            Emulator emu(p);
            std::uint64_t n = 0;
            while (!emu.halted() &&
                   (max_insts == 0 || n < max_insts)) {
                std::uint64_t ran = emu.run(
                    max_insts == 0 ? std::uint64_t(1) << 30
                                   : max_insts - n);
                if (ran == 0)
                    break;
                n += ran;
            }
            insts += n;
        }
        auto t1 = std::chrono::steady_clock::now();
        keepBestPass(insts, t0, t1, out);
    }
    finishPath(out);
    return true;
}

// ---------------------------------------------------------------
// JSON rendering
// ---------------------------------------------------------------

void
pathToJson(std::ostringstream &o, const char *key, const PerfPath &p)
{
    char buf[192];
    std::snprintf(buf, sizeof buf,
                  "\"%s\":{\"insts\":%llu,\"seconds\":%.6f,"
                  "\"ips\":%.1f}",
                  key, (unsigned long long)p.insts, p.seconds, p.ips);
    o << buf;
}

/** An entry's rows in file order. The first three are the original
 *  schema; every later row is optional on read, because trajectory
 *  files written before it existed omit it, and its absence is not
 *  drift. A key not listed here (a retired row of an older file) is
 *  not read, so it is not written back either. */
constexpr struct
{
    const char *key;
    PerfPath PerfEntry::*path;
} kRows[] = {
    {"detailed", &PerfEntry::detailed},
    {"abstract", &PerfEntry::abstracted},
    {"emulator", &PerfEntry::emulator},
    {"emu_pre", &PerfEntry::emuPre},
    {"sampled", &PerfEntry::sampled},
    {"inject_idle", &PerfEntry::injectIdle},
};
constexpr std::size_t kRequiredRows = 3;

void
entryToJson(std::ostringstream &o, const char *key, const PerfEntry &e)
{
    o << "  \"" << key << "\": {\"build_type\":\""
      << json::escape(e.buildType) << "\",\"max_insts\":"
      << (unsigned long long)e.maxInsts;
    for (const auto &row : kRows) {
        o << ",";
        pathToJson(o, row.key, e.*row.path);
    }
    o << "}";
}

// ---------------------------------------------------------------
// JSON parsing (the trajectory file must stay machine-readable across
// PRs, so drift is a hard parse error)
// ---------------------------------------------------------------

bool
pathFromJson(const json::Value &parent, const char *key, bool required,
             PerfPath *p, std::string *error)
{
    const json::Value *j = nullptr;
    return json::field(parent, key, &j, error, required) &&
           (!j || (json::field(*j, "insts", &p->insts, error, true) &&
                   json::field(*j, "seconds", &p->seconds, error, true) &&
                   json::field(*j, "ips", &p->ips, error, true)));
}

bool
entryFromJson(const json::Value &parent, const char *key, PerfEntry *e,
              std::string *error)
{
    const json::Value *j = nullptr;
    if (!json::field(parent, key, &j, error, true) ||
        !json::field(*j, "build_type", &e->buildType, error, true) ||
        !json::field(*j, "max_insts", &e->maxInsts, error, true))
        return false;
    for (std::size_t i = 0; i < std::size(kRows); i++)
        if (!pathFromJson(*j, kRows[i].key, i < kRequiredRows,
                          &(e->*kRows[i].path), error))
            return false;
    e->valid = true;
    return true;
}

bool
readFile(const std::string &path, std::string *out, std::string *error)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        *error = "cannot open " + path;
        return false;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    *out = ss.str();
    return true;
}

void
printPath(const char *name, const PerfPath &p)
{
    std::printf("  %-9s %12llu insts  %8.3f s  %12.0f insts/s\n",
                name, (unsigned long long)p.insts, p.seconds, p.ips);
}

} // namespace

bool
measurePerf(std::uint64_t max_insts, PerfEntry *out, std::string *error)
{
    CampaignSpec t3 = table3Campaign();
    if (max_insts)
        t3 = t3.withMaxInsts(max_insts);

    PerfEntry e;
    e.buildType = SIMALPHA_BUILD_TYPE;
    e.maxInsts = max_insts;
    if (!timeMachinePath(t3, "sim-alpha", &e.detailed, error))
        return false;
    if (!timeMachinePath(t3, "sim-outorder", &e.abstracted, error))
        return false;
    if (!timeEmulatorPath(t3, max_insts, &e.emulator, error))
        return false;
    if (!timeEmuPrePath(t3, max_insts, &e.emuPre, error))
        return false;
    if (!timeSampledPath(t3, max_insts, &e.sampled, error))
        return false;
    if (!timeInjectIdlePath(t3, &e.injectIdle, error))
        return false;
    e.valid = true;
    *out = e;
    return true;
}

std::string
perfReportToJson(const PerfReport &report)
{
    std::ostringstream o;
    o << "{\n";
    o << "  \"schema_version\": " << report.schemaVersion << ",\n";
    o << "  \"campaign\": \"" << json::escape(report.campaign)
      << "\",\n";
    entryToJson(o, "baseline", report.baseline);
    o << ",\n";
    entryToJson(o, "current", report.current);
    o << ",\n";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.3f", report.speedupDetailed);
    o << "  \"speedup_detailed\": " << buf << "\n";
    o << "}\n";
    return o.str();
}

bool
parsePerfReport(const std::string &text, PerfReport *out,
                std::string *error)
{
    json::Value root;
    std::uint64_t version = 0;
    if (!json::parse(text, &root, error) ||
        !json::field(root, "schema_version", &version, error, true))
        return false;
    if (version != 1) {
        *error = "unsupported schema_version";
        return false;
    }
    PerfReport r;
    r.schemaVersion = int(version);
    if (!json::field(root, "campaign", &r.campaign, error, true) ||
        !json::field(root, "speedup_detailed", &r.speedupDetailed, error,
                     true) ||
        !entryFromJson(root, "baseline", &r.baseline, error) ||
        !entryFromJson(root, "current", &r.current, error))
        return false;
    *out = r;
    return true;
}

bool
checkPerfFile(const std::string &path, std::string *error)
{
    std::string text;
    if (!readFile(path, &text, error))
        return false;
    PerfReport r;
    return parsePerfReport(text, &r, error);
}

int
runBenchCommand(int argc, char **argv)
{
    std::string out_path = "BENCH_perf.json";
    std::string check_path;
    std::uint64_t max_insts = kPerfBenchDefaultMaxInsts;
    bool cap_explicit = false;
    bool set_baseline = false;
    bool smoke = false;
    const flags::Command command{
        "bench",
        "usage: simalpha bench [options]\n"
        "\n"
        "Times the capped Table 3 rows and records them as `current` in the\n"
        "trajectory file, keeping its pinned `baseline`.\n",
        {{"bench options",
          {{"--quick", "",
            "cap every cell at " + std::to_string(kPerfBenchQuickMaxInsts) +
                " instructions",
            [&](const std::string &) {
                max_insts = kPerfBenchQuickMaxInsts;
                cap_explicit = true;
            }},
           {"--max-insts", "<n>",
            "cap every cell at n instructions (default " +
                std::to_string(kPerfBenchDefaultMaxInsts) + ")",
            [&](const std::string &v) {
                max_insts = flagNumber<std::uint64_t>("--max-insts", v);
                cap_explicit = true;
            }},
           flags::text("--out", "<file>", &out_path,
                       "the trajectory file (default BENCH_perf.json)"),
           flags::text("--check", "<file>", &check_path,
                       "check a trajectory file's schema; measure nothing"),
           flags::toggle("--set-baseline", &set_baseline,
                         "pin this measurement as the baseline"),
           flags::toggle("--smoke", &smoke,
                         "re-time the detailed and emulator rows against the "
                         "baseline pinned in --out; fail below 0.80x")}}}};
    if (!flags::parse(command, argc, argv))
        return 0;

    if (!check_path.empty()) {
        std::string error;
        if (!checkPerfFile(check_path, &error)) {
            std::fprintf(stderr, "bench: %s: %s\n", check_path.c_str(),
                         error.c_str());
            return 1;
        }
        std::printf("bench: %s: schema ok\n", check_path.c_str());
        return 0;
    }

    if (smoke) {
        std::string text, error;
        PerfReport r;
        if (!readFile(out_path, &text, &error) ||
            !parsePerfReport(text, &r, &error)) {
            std::fprintf(stderr,
                         "bench: --smoke needs a valid trajectory "
                         "file %s: %s\n",
                         out_path.c_str(), error.c_str());
            return 1;
        }
        if (!r.baseline.valid || r.baseline.detailed.ips <= 0.0 ||
            r.baseline.emulator.ips <= 0.0) {
            std::fprintf(stderr,
                         "bench: --smoke: %s has no usable pinned "
                         "baseline (run `simalpha bench "
                         "--set-baseline` first)\n",
                         out_path.c_str());
            return 1;
        }

        setQuiet(true);
        std::uint64_t cap =
            cap_explicit ? max_insts : r.baseline.maxInsts;
        std::printf("bench: smoke at max_insts=%llu vs baseline "
                    "(build=%s)...\n",
                    (unsigned long long)cap,
                    r.baseline.buildType.c_str());
        std::fflush(stdout);

        CampaignSpec t3 = table3Campaign();
        if (cap)
            t3 = t3.withMaxInsts(cap);
        // Up to three attempts, keeping the best ips seen per path
        // and stopping as soon as both clear the floor. Interference
        // on a shared machine is one-sided (it only ever slows a
        // trial down), so retrying shields the gate from transient
        // throttling while a genuine regression still fails every
        // attempt.
        PerfPath det, emu;
        double det_ratio = 0.0, emu_ratio = 0.0;
        for (int attempt = 0; attempt < 3; attempt++) {
            PerfPath d, e2;
            if (!timeMachinePath(t3, "sim-alpha", &d, &error) ||
                !timeEmulatorPath(t3, cap, &e2, &error)) {
                std::fprintf(stderr,
                             "bench: smoke measurement failed: %s\n",
                             error.c_str());
                return 1;
            }
            if (attempt == 0 || d.ips > det.ips)
                det = d;
            if (attempt == 0 || e2.ips > emu.ips)
                emu = e2;
            det_ratio = det.ips / r.baseline.detailed.ips;
            emu_ratio = emu.ips / r.baseline.emulator.ips;
            if (det_ratio >= 0.8 && emu_ratio >= 0.8)
                break;
        }
        printPath("detailed", det);
        printPath("emulator", emu);
        std::printf("detailed vs baseline: %.2fx, emulator vs "
                    "baseline: %.2fx (floor 0.80x)\n",
                    det_ratio, emu_ratio);
        if (r.baseline.buildType != SIMALPHA_BUILD_TYPE) {
            std::printf("bench: smoke: build type %s differs from "
                        "baseline %s — thresholds reported, not "
                        "enforced\n",
                        SIMALPHA_BUILD_TYPE,
                        r.baseline.buildType.c_str());
            return 0;
        }
        if (det_ratio < 0.8 || emu_ratio < 0.8) {
            std::fprintf(stderr,
                         "bench: smoke FAILED: ips regressed more "
                         "than 20%% against the pinned baseline\n");
            return 1;
        }
        std::printf("bench: smoke OK\n");
        return 0;
    }

    setQuiet(true);

    // Preserve the pinned baseline of an existing trajectory file. A
    // malformed file is an error, not an overwrite — losing the
    // baseline silently would wreck the trajectory.
    PerfReport report;
    bool had_file = false;
    {
        std::ifstream probe(out_path);
        if (probe.good()) {
            std::string text, error;
            if (!readFile(out_path, &text, &error) ||
                !parsePerfReport(text, &report, &error)) {
                std::fprintf(stderr,
                             "bench: refusing to overwrite malformed "
                             "%s: %s\n",
                             out_path.c_str(), error.c_str());
                return 1;
            }
            had_file = true;
        }
    }

    std::printf("bench: measuring capped table3 (max_insts=%llu, "
                "build=%s)...\n",
                (unsigned long long)max_insts, SIMALPHA_BUILD_TYPE);
    std::fflush(stdout);

    PerfEntry e;
    std::string error;
    if (!measurePerf(max_insts, &e, &error)) {
        std::fprintf(stderr, "bench: measurement failed: %s\n",
                     error.c_str());
        return 1;
    }

    report.current = e;
    if (!had_file || !report.baseline.valid || set_baseline)
        report.baseline = e;
    report.speedupDetailed =
        report.baseline.detailed.ips > 0.0
            ? e.detailed.ips / report.baseline.detailed.ips
            : 1.0;

    if (!writeFileAtomic(out_path, perfReportToJson(report), &error)) {
        std::fprintf(stderr, "bench: %s\n", error.c_str());
        return 1;
    }

    std::printf("current (build=%s, max_insts=%llu):\n",
                e.buildType.c_str(), (unsigned long long)e.maxInsts);
    printPath("detailed", e.detailed);
    printPath("abstract", e.abstracted);
    printPath("emulator", e.emulator);
    printPath("emu-pre", e.emuPre);
    printPath("sampled", e.sampled);
    printPath("inj-idle", e.injectIdle);
    if (e.detailed.ips > 0.0 && e.injectIdle.ips > 0.0)
        std::printf("inject-idle vs detailed: %.3fx (disarmed "
                    "injection hooks; ~1.0 expected)\n",
                    e.injectIdle.ips / e.detailed.ips);
    if (report.baseline.maxInsts != e.maxInsts)
        std::printf("note: baseline was recorded at max_insts=%llu — "
                    "speedup compares insts/s across caps\n",
                    (unsigned long long)report.baseline.maxInsts);
    std::printf("speedup (detailed vs baseline): %.2fx\n",
                report.speedupDetailed);
    std::printf("wrote %s\n", out_path.c_str());
    return 0;
}

} // namespace runner
} // namespace simalpha
