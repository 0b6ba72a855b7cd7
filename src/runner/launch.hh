/**
 * @file
 * One campaign run, described once.
 *
 * The driver's --campaign and `vuln`, every serve job, the process
 * supervisor and its `simalpha --shard` workers all take a run as one
 * LaunchOptions: what to run (a campaign name with its cap and
 * sampling, from which every layer derives the same spec through
 * deriveCampaign()), how to isolate it, what it may reuse, where it
 * journals, and where its settled lines go. launchCampaign() runs it
 * on the in-process ExperimentRunner pool or, under
 * `isolate = "process"`, across worker processes under the supervisor
 * (runner/supervisor.hh); both release the same journal bytes in spec
 * order (runner/sharded.hh).
 */

#ifndef SIMALPHA_RUNNER_LAUNCH_HH
#define SIMALPHA_RUNNER_LAUNCH_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "runner/runner.hh"

namespace simalpha {
namespace runner {

struct LaunchOptions
{
    /** Campaign name: worker processes and fleet workers get only the
     *  name (with the cap and sampling) and re-derive the spec. */
    std::string campaign;
    /** Committed-instruction cap applied to every cell (0 = none). */
    std::uint64_t maxInsts = 0;
    /** Sampled-execution spec applied to every cell (disabled by
     *  default). */
    checkpoint::SampleSpec sample;

    /** "thread" (default): the ExperimentRunner pool, containing C++
     *  exceptions per cell; "process": `simalpha --shard` workers
     *  under the supervisor, containing signal deaths, OOM kills and
     *  hangs per cell too. */
    std::string isolate = "thread";
    /** Pool threads under threads; 0 = hardware concurrency. */
    int jobs = 0;
    /** Worker processes under processes; 0 = hardware concurrency. */
    int shards = 0;
    /** The simalpha binary workers exec. */
    std::string workerBinary;
    /** Per-cell wall-clock budget of a worker, in seconds (0 = none). */
    double cellTimeout = 0.0;
    /** First respawn delay in seconds; doubles per respawn, with
     *  deterministic per-shard jitter (respawnBackoffSeconds). */
    double backoffSeconds = 0.05;

    /** The pool's in-memory result cache (RunnerOptions::cache). */
    bool cache = true;
    /** Persistent result store root (empty = none), shared by the
     *  pool, every worker and any other run pointed at it. */
    std::string storePath;
    /** Extra executions of a cell failing with a retryable class. */
    int maxRetries = 0;
    /** Fault plan (tests and drills), in campaign cell indices. */
    std::vector<FaultInjection> faults;

    /** Append-only journal (empty = none); a --shard worker's is its
     *  slice journal. With resume, settled cells are replayed from it
     *  and its scratch directory (<journal>.shards.d) instead of run. */
    std::string journalPath;
    bool resume = false;
    /** fsync the journal after every line (see CampaignJournal). */
    bool journalSync = false;

    /** Set by a signal handler or another thread: no further cell
     *  starts, workers are stopped, and the run returns early. */
    const std::atomic<bool> *cancel = nullptr;

    /** Every settled cell's journal line as it is released, in spec
     *  order, with its ok flag and whether it was served rather than
     *  computed: a journal, store or cache hit under threads, a
     *  replayed line under processes. Calls are serialized. */
    std::function<void(const std::string &line, bool ok, bool served)>
        onLine;
};

/** Persistent-store traffic of a run, a worker or a shard. */
struct StoreTraffic
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t bytesRead = 0;
    std::uint64_t bytesWritten = 0;
};

struct LaunchOutcome
{
    CampaignResult result;
    /** True if the run was cut short by the cancel flag; the result
     *  is partial and should not become an artifact. */
    bool interrupted = false;
    std::size_t replayedCells = 0;  ///< served from the journal
    std::uint64_t cacheHits = 0;    ///< the pool's result cache

    /** Store traffic: the pool's, or every worker's summed. */
    StoreTraffic storeTraffic;
    /** Per-worker store traffic by shard id (processes only: zeros
     *  without a store, empty when the replay left nothing to run). */
    std::vector<StoreTraffic> shardStore;
    /** The pool was given a store it could not open, and computed
     *  every cell without it. */
    bool storeDegraded = false;

    std::size_t crashedCells = 0;   ///< error class "crash"
    std::size_t timedOutCells = 0;  ///< error class "timeout"
    int spawns = 0;                 ///< worker processes started
    int respawns = 0;               ///< of which after a death
    /** Scratch directory left on disk for post-mortem (worker logs)
     *  when something went wrong; empty when cleaned up. */
    std::string scratchRetained;
};

/** The spec @p options describe (deriveCampaign()); throws ConfigError
 *  with campaignByName()'s reason for an unknown campaign. */
CampaignSpec launchSpec(const LaunchOptions &options);

/** Run the campaign @p options describe under its isolation. Throws
 *  ConfigError for unusable options (unknown campaign, missing worker
 *  binary) and std::runtime_error when supervising a slice failed
 *  outright. */
LaunchOutcome launchCampaign(const LaunchOptions &options);

} // namespace runner
} // namespace simalpha

#endif // SIMALPHA_RUNNER_LAUNCH_HH
