/**
 * @file
 * The fleet dispatcher: one front-end daemon fanning campaigns out to
 * per-host `simalpha serve` workers over the ordinary serve protocol.
 *
 * The dispatcher *is* a serve::Server — clients connect, submit, and
 * stream results exactly as against a single daemon — whose accepted
 * jobs run through Dispatcher::execute() (the serve::JobExecutor
 * hook) instead of runner::launchCampaign(). execute() is the
 * serve-socket transport of runner::ShardedRun, which owns replay,
 * partitioning, the merge barrier and the master journal:
 *
 *   1. replay: the job's master journal under <store>/serve.d/ is
 *      replayed first (newest line per cell, manifest-checked), so a
 *      restarted dispatcher re-serves settled cells byte-identically
 *      and dispatches only slices with unsettled cells;
 *   2. partition: slice i of n holds the campaign's cells i, i+n, ...
 *      and is named "shard:<i>/<n>:<campaign>" (n = live workers),
 *      which each worker re-derives from the name alone — the same
 *      partition the process-isolation shards use;
 *   3. dispatch: each shard is submitted to a worker through the
 *      retrying client (busy replies and torn streams back off and
 *      retry against the same worker; a worker that stays unreachable
 *      is marked dead and its shard re-dispatched to a live one —
 *      worker-side job journals make every re-dispatch resume, never
 *      recompute, what already settled);
 *   4. merge: a returned line is accepted when it names a cell of
 *      the campaign with its current manifest hash, and lines reach
 *      the master journal and the subscribers in campaign spec order
 *      — the order a single-host `--jobs 1` run settles in — so the
 *      master journal and every derived artifact are byte-identical
 *      to a single-host run at any worker count;
 *   5. sync (opt-in): before dispatch the dispatcher's store is
 *      pushed to every live worker (op "sync", checkpoints and golden
 *      blobs included) and after completion freshly-published worker
 *      entries are harvested back, so a warm fleet rerun computes
 *      nothing anywhere.
 *
 * Failure matrix: a dead worker costs a re-dispatch; a dead
 * dispatcher costs a restart + idempotent resubmit (master journal
 * replay); cancel propagates to every worker as protocol cancel ops;
 * all workers dead is an explicit job failure with every settled cell
 * already journaled.
 */

#ifndef SIMALPHA_FLEET_DISPATCHER_HH
#define SIMALPHA_FLEET_DISPATCHER_HH

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "fleet/registry.hh"
#include "serve/server.hh"
#include "store/store.hh"

namespace simalpha {
namespace fleet {

struct FleetOptions
{
    /** Worker daemon addresses (Unix-socket paths or tcp:[HOST:]PORT). */
    std::vector<WorkerConfig> workers;

    /** Pre-seed every live worker's store before dispatch and harvest
     *  new entries back after each job (op "sync"). */
    bool syncStores = false;

    /** Per-attempt budget for one shard submission (connect + stream);
     *  0 = unbounded stream (connects stay bounded separately). */
    double workerTimeoutSeconds = 0.0;
    double connectTimeoutSeconds = 10.0;

    /** Client-level retries per dispatch (busy/torn-stream/connect,
     *  against the same worker). */
    int maxRetries = 3;
    /** Times a shard may be re-dispatched to *another* worker after
     *  its current worker fails terminally. */
    int maxRedispatch = 2;
    double backoffSeconds = 0.2;
    std::uint64_t seed = 0;
};

/** Cumulative dispatcher statistics. */
struct FleetStats
{
    std::uint64_t jobs = 0;
    std::uint64_t shardsDispatched = 0;
    std::uint64_t redispatches = 0;     ///< shard moved to another worker
    std::uint64_t cellsMerged = 0;      ///< appended to a master journal
    std::uint64_t cellsReplayed = 0;    ///< served from a master journal
    std::uint64_t syncPushedEntries = 0;
    std::uint64_t syncPulledEntries = 0;
    std::string lastSyncError;          ///< sync is best-effort
};

class Dispatcher
{
  public:
    explicit Dispatcher(FleetOptions options);

    /** Probe the configured workers. False with *error filled when
     *  none answer (a dispatcher with no fleet serves nothing). */
    bool start(std::string *error);

    /** The serve::JobExecutor to plug into ServeOptions::executor. */
    serve::JobExecutor executor();

    /** Run one accepted job across the fleet: a runner::ShardedRun
     *  whose transport dispatches each slice to a worker (plus store
     *  sync), streaming through launch.onLine with replayed lines as
     *  served. The outcome is empty: the lines are the result. Throws
     *  on unrecoverable failure — the server marks the job failed;
     *  settled cells stay journaled. */
    runner::LaunchOutcome execute(const runner::LaunchOptions &launch);

    FleetStats stats() const;
    std::vector<WorkerStatus> workers() const;

  private:
    bool ensureStore(const std::string &root, std::string *error);
    /** Push the dispatcher's store to every live worker, or (with
     *  @p pullNewerThanSeconds > 0) pull their newer entries back. */
    void syncAll(const std::string &root,
                 const std::vector<std::size_t> &live,
                 std::uint64_t pullNewerThanSeconds);

    FleetOptions _opts;
    WorkerRegistry _registry;
    std::unique_ptr<store::ResultStore> _store;
    mutable std::mutex _mu;
    FleetStats _stats;
};

} // namespace fleet
} // namespace simalpha

#endif // SIMALPHA_FLEET_DISPATCHER_HH
