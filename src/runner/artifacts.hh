/**
 * @file
 * Campaign artifacts: deterministic JSON/CSV serialization of campaign
 * results (suitable for golden-value regression and byte-for-byte
 * determinism checks), plus diffing and per-machine aggregation.
 *
 * Serialization is canonical by construction — cells in spec order,
 * counters sorted by name, fixed-precision doubles — so two campaigns
 * that measured the same numbers always render the same bytes.
 */

#ifndef SIMALPHA_RUNNER_ARTIFACTS_HH
#define SIMALPHA_RUNNER_ARTIFACTS_HH

#include <string>
#include <vector>

#include "runner/launch.hh"

namespace simalpha {
namespace runner {

/** "%.6f" text of a double, deterministic for equal values: the fixed
 *  precision of artifact doubles and of journal sampling statistics. */
std::string fixed6(double v);

/** Render a campaign result as canonical JSON. */
std::string toJson(const CampaignResult &result);

/** Render a campaign result as CSV (one row per cell, no counters). */
std::string toCsv(const CampaignResult &result);

/**
 * Atomically replace @p path with @p content: write a temporary file
 * next to it, then rename over the target. A kill at any instant
 * leaves either the previous file or the complete new one — never a
 * truncated artifact. Returns false with *error filled on I/O failure
 * (the temporary is removed).
 */
bool writeFileAtomic(const std::string &path,
                     const std::string &content, std::string *error);

/**
 * Write an artifact file; format chosen by extension (.csv writes
 * CSV, anything else JSON). The write is atomic (temp + rename).
 * Returns false with *error filled on I/O failure.
 */
bool writeArtifact(const CampaignResult &result,
                   const std::string &path, std::string *error);

/** One field that differs between two campaigns' matching cells. */
struct CellDiff
{
    std::string machine;
    std::string optimization;
    std::string workload;
    std::string field;      ///< "cycles", "insts", "missing", ...
    std::string a;
    std::string b;
};

/**
 * Compare two campaign results cell-by-cell (matched by machine,
 * optimization, workload, maxInsts, seed). Reports differing cycles,
 * instruction counts, status, counters, and cells present on only one
 * side. Empty result = campaigns measured identical numbers.
 */
std::vector<CellDiff> diffCampaigns(const CampaignResult &a,
                                    const CampaignResult &b);

/** Per-machine rollup of one campaign. */
struct MachineAggregate
{
    std::string machine;    ///< machine name (+optimization suffix)
    std::size_t cellsOk = 0;
    std::size_t cellsFailed = 0;
    std::uint64_t totalCycles = 0;
    std::uint64_t totalInsts = 0;
    double hmeanIpc = 0.0;  ///< harmonic-mean IPC over ok cells
};

/** Aggregate a campaign by machine, in first-appearance order. */
std::vector<MachineAggregate>
aggregateByMachine(const CampaignResult &result);

/**
 * Run-level observability — cell counts, cache and persistent-store
 * traffic — of one campaign run, @p outcome of launching @p options:
 * written as <artifactPath>.summary.json (canonical JSON) and
 * <artifactPath>.summary.csv (metric,value, one per-shard row per
 * traffic counter), both atomic. Deliberately *sidecar* artifacts
 * rather than folded into the main artifact: traffic differs between
 * a cold and a warm store, and the cell-results artifact must stay
 * byte-identical between them. Returns false with *error filled on
 * the first I/O failure.
 */
bool writeSummaryArtifacts(const LaunchOptions &options,
                           const LaunchOutcome &outcome,
                           const std::string &artifactPath,
                           std::string *error);

} // namespace runner
} // namespace simalpha

#endif // SIMALPHA_RUNNER_ARTIFACTS_HH
