/**
 * @file
 * Perf-trajectory harness: measure simulated-instructions-per-second
 * on a fixed capped Table-3 campaign and track the numbers across PRs
 * in BENCH_perf.json at the repo root.
 *
 * Each path is timed separately so the trajectory distinguishes
 * detailed-core work from functional-emulation work:
 *   - detailed:  the sim-alpha cells of Table 3 (cycle-accurate
 *                AlphaCore, the hot loop this file exists to watch)
 *   - abstract:  the sim-outorder cells (SimpleScalar-style RuuCore)
 *   - emulator:  the raw functional Emulator over the same workloads
 *   - emu-pre, sampled, inj-idle: see PerfEntry
 *
 * Every row is one in-process timing with no spread. The serve, fleet
 * and warm-store paths are timed by campaignbench's paired `t5-fleet`
 * workload instead; the `serve_*`, `fleet_*` and `warm_store` rows
 * that older trajectory files carry are ignored on read.
 *
 * The JSON file keeps two entries: `baseline` (recorded once, before
 * an optimization lands, and preserved by later runs) and `current`
 * (replaced on every `simalpha bench` run), plus the derived
 * detailed-path speedup. `simalpha bench --check FILE` validates the
 * schema without measuring, so CI can fail on drift cheaply.
 */

#ifndef SIMALPHA_RUNNER_PERFBENCH_HH
#define SIMALPHA_RUNNER_PERFBENCH_HH

#include <cstdint>
#include <string>

namespace simalpha {
namespace runner {

/** Wall-clock measurement of one simulation path. */
struct PerfPath
{
    std::uint64_t insts = 0; ///< total simulated instructions
    double seconds = 0.0;    ///< wall-clock seconds (steady clock)
    double ips = 0.0;        ///< insts / seconds
};

/** One measured snapshot of all measured paths. */
struct PerfEntry
{
    std::string buildType; ///< CMAKE_BUILD_TYPE the binary was built as
    std::uint64_t maxInsts = 0; ///< per-cell committed-instruction cap
    PerfPath detailed;
    PerfPath abstracted;
    PerfPath emulator;
    /**
     * The functional emulator driven through its predecoded batch
     * loop (Emulator::run()) instead of one step() call per
     * instruction — the raw-dispatch ceiling. The delta against
     * `emulator` is the per-call overhead step() pays to keep its
     * precise single-instruction contract. Absent in trajectory files
     * written before predecode existed; parse treats it as optional.
     */
    PerfPath emuPre;
    /**
     * Checkpoint-sampled sim-alpha over the same workloads at 10x the
     * detailed cap: `insts` counts the instructions the sampled run
     * *represents* (the functional fast-forward length), so `ips` is
     * the effective simulation rate including fast-forward and
     * checkpoint generation. Absent in trajectory files written
     * before sampling existed; parse treats it as optional.
     */
    PerfPath sampled;
    /**
     * The detailed path measured a second time with the soft-error
     * injection hooks explicitly disarmed — the injection-overhead
     * row. The hooks cost one predicted-not-taken branch per cycle
     * when no plan is armed, so this should match `detailed` within
     * run-to-run noise; a drift here means the disarmed hook grew a
     * real cost. Absent in trajectory files written before injection
     * existed; parse treats it as optional.
     */
    PerfPath injectIdle;
    bool valid = false;
};

/** The whole trajectory file: pinned baseline + latest measurement. */
struct PerfReport
{
    int schemaVersion = 1;
    std::string campaign = "table3";
    PerfEntry baseline;
    PerfEntry current;
    /** current.detailed.ips / baseline.detailed.ips */
    double speedupDetailed = 1.0;
};

/** Default committed-instruction cap for a full `simalpha bench`. */
constexpr std::uint64_t kPerfBenchDefaultMaxInsts = 100000;
/** Cap used by `simalpha bench --quick` (CI smoke). */
constexpr std::uint64_t kPerfBenchQuickMaxInsts = 5000;

/**
 * Run the capped Table-3 campaign serially (jobs=1, cache off) and
 * time the three paths. Prints nothing; throws nothing — a failed
 * cell makes the entry invalid with *error filled.
 */
bool measurePerf(std::uint64_t max_insts, PerfEntry *out,
                 std::string *error);

/** Render a report as the canonical BENCH_perf.json text. */
std::string perfReportToJson(const PerfReport &report);

/**
 * Parse a BENCH_perf.json text. Returns false with *error filled on
 * malformed JSON or schema drift (missing/ill-typed fields).
 */
bool parsePerfReport(const std::string &text, PerfReport *out,
                     std::string *error);

/**
 * Validate that the file at @p path parses as a PerfReport.
 * Returns false with *error filled on I/O failure or schema drift.
 */
bool checkPerfFile(const std::string &path, std::string *error);

/**
 * The `simalpha bench` verb. argv[0] is "bench". Flags:
 *   --quick         measure at the small CI cap
 *   --max-insts N   explicit per-cell cap
 *   --out FILE      trajectory file (default BENCH_perf.json)
 *   --check FILE    validate FILE's schema only; no measurement
 *   --set-baseline  pin this measurement as the new baseline too
 *   --smoke         regression gate: re-measure only the detailed and
 *                   emulator rows at the pinned baseline's cap and
 *                   fail (exit 1) if either drops below 80% of the
 *                   baseline ips. Never writes the trajectory file;
 *                   when the running build type differs from the
 *                   baseline's the thresholds are reported but not
 *                   enforced (cross-build ips are incomparable).
 * Exit codes: 0 ok, 1 measurement/validation failure, 2 usage.
 */
int runBenchCommand(int argc, char **argv);

} // namespace runner
} // namespace simalpha

#endif // SIMALPHA_RUNNER_PERFBENCH_HH
