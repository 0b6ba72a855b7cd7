/**
 * @file
 * The shard protocol between the process-isolation supervisor and its
 * `simalpha --shard` worker processes.
 *
 * A sharded campaign is split into slices of cell indices; each worker
 * re-derives the campaign spec from its name (campaigns are pure
 * functions of their name and instruction cap, so no state needs to
 * cross the exec boundary) and executes its slice serially, writing
 * one JSONL journal:
 *
 *   - a heartbeat line *before* each cell starts, carrying the
 *     campaign cell index — the supervisor's only window into an
 *     otherwise-silent simulation, used both to attribute a worker
 *     death to the in-flight cell and to enforce per-cell wall-clock
 *     timeouts, and
 *   - the ordinary campaign-journal result line *after* each cell
 *     completes (ok or contained failure): the worker runs its slice
 *     without a journal and appends each cell's journalLine itself,
 *     the exact bytes an in-process run releases.
 *
 * Everything here is deliberately plain data: cell-index lists,
 * heartbeat lines, fault-injection specs (all exec-able as command
 * lines), the wait-status → error-class mapping, and the merge of
 * shard journals back into one spec-ordered campaign result.
 */

#ifndef SIMALPHA_RUNNER_SHARD_HH
#define SIMALPHA_RUNNER_SHARD_HH

#include <cstdint>
#include <string>
#include <vector>

#include "runner/launch.hh"

namespace simalpha {
namespace runner {

/** Round-robin assignment of @p cellCount cells over @p shardCount
 *  shards: shard i holds cells i, i+n, ... — the one partition behind
 *  the sharded executor and `shard:<i>/<n>:<base>` campaign names.
 *  Shards beyond the cell count come back empty. */
std::vector<std::vector<std::size_t>>
shardCells(std::size_t cellCount, std::size_t shardCount);

/** Shard @p index of @p shardCount alone (shardCells()[index] without
 *  building the others): any count, however large, costs only the
 *  cells the shard holds. */
std::vector<std::size_t> shardSlice(std::size_t cellCount,
                                    std::size_t index,
                                    std::size_t shardCount);

/** "0,3,6" ⇄ {0,3,6} — the worker's --cells argument. */
std::string formatCellList(const std::vector<std::size_t> &cells);
bool parseCellList(const std::string &text,
                   std::vector<std::size_t> *out, std::string *error);

/** "17:segfault:1" ⇄ FaultInjection — the worker's --inject argument
 *  (kinds: panic, stall, throw, abort, segfault, hang; the optional
 *  :times counts faulting executions, default every execution). */
std::string formatFaultSpec(const FaultInjection &fault);
bool parseFaultSpec(const std::string &text, FaultInjection *out,
                    std::string *error);

/** The heartbeat line a worker writes (and flushes) into its journal
 *  immediately before cell @p cellIndex starts executing. */
std::string heartbeatLine(const std::string &campaign,
                          std::size_t cellIndex,
                          const std::string &workload);

/** Parse a heartbeat line of @p campaign; false for anything else
 *  (result lines, other campaigns, torn lines). */
bool parseHeartbeatLine(const std::string &line,
                        const std::string &campaign,
                        std::size_t *cellIndex);

/** The store-traffic summary line a worker appends (and flushes) to
 *  its journal when it finishes (or is interrupted mid-) slice, so the
 *  supervisor can attribute store hits per shard. */
std::string storeSummaryLine(const std::string &campaign,
                             const StoreTraffic &traffic);

/** Parse a store-summary line of @p campaign; false for anything else
 *  (heartbeats, result lines, other campaigns, torn lines). */
bool parseStoreSummaryLine(const std::string &line,
                           const std::string &campaign,
                           StoreTraffic *out);

/**
 * Respawn delay after a worker death: exponential in the respawns
 * already used (base * 2^respawnsUsed), scaled by a deterministic
 * jitter factor in [0.75, 1.25) derived from (shardId, respawnsUsed).
 * The jitter desynchronizes shards that die simultaneously (a shared
 * poison input, an OOM sweep) so their respawns — and likely next
 * crashes — don't land in lockstep; determinism keeps supervisor runs
 * reproducible.
 */
double respawnBackoffSeconds(double baseSeconds, int respawnsUsed,
                             std::uint64_t shardId);

/**
 * Map a waitpid(2) status to the error taxonomy:
 *
 *   exited 0          → ok: *errorClass cleared, returns true
 *   exited nonzero    → "crash" (worker exited without finishing)
 *   killed by signal  → "crash", message names the signal (SIGSEGV,
 *                        SIGABRT, SIGKILL — the OOM killer's spoor)
 *
 * Returns false when the status describes a failure.
 */
bool describeWaitStatus(int waitStatus, std::string *errorClass,
                        std::string *message);

/** The manifest hash of every cell of @p spec (cellManifestHash),
 *  computed once per (machine, optimization): Table 5 has 52
 *  configurations over 520 cells, and one hash costs tens of µs. */
std::vector<std::string> manifestHashes(const CampaignSpec &spec);

/**
 * Merge shard journals into one spec-ordered campaign result — the
 * one spec-level replay every sharded path reads through. Entries are
 * matched by cell identity; an entry whose manifest hash no longer
 * matches the current machine definition is stale and skipped, and of
 * the rest the newest wins within a journal and the later journal
 * across @p journalPaths. A torn final line is discarded. Cells with
 * no usable entry are listed in *missing and left as default (failed,
 * empty error) results carrying their identity. Missing journal files
 * are skipped (a worker that never spawned writes nothing).
 *
 * When @p lines is given, (*lines)[i] receives the verbatim bytes of
 * cell i's entry (empty for a missing cell), so replayed results are
 * never re-encoded. @p hashes, when given, is manifestHashes(spec),
 * for callers that check further lines against the same hashes.
 */
void mergeShardJournals(const CampaignSpec &spec,
                        const std::vector<std::string> &journalPaths,
                        CampaignResult *out,
                        std::vector<std::size_t> *missing,
                        std::vector<std::string> *lines = nullptr,
                        const std::vector<std::string> *hashes = nullptr);

/**
 * What `simalpha --shard` executes: campaign cells @p cells of the run
 * @p options describes, serially as one ExperimentRunner::run (so its
 * cells share one program per workload), with a heartbeat before and
 * a journal line after each cell in options.journalPath, the slice
 * journal. With a store, a store-summary line reports this worker's
 * hit counts; faults keep their campaign indices
 * (RunnerOptions::campaignIndices); the cancel flag stops it before
 * the next cell. Returns a process exit code (0 done, 3 cancelled);
 * throws ConfigError naming an unknown campaign, a cell out of range
 * or a journal that would not open. Crash faults never return at all
 * — that is the point.
 */
int runShardWorker(const LaunchOptions &options,
                   const std::vector<std::size_t> &cells);

} // namespace runner
} // namespace simalpha

#endif // SIMALPHA_RUNNER_SHARD_HH
