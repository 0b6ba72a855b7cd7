#include "fleet/dispatcher.hh"

#include <algorithm>
#include <chrono>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>

#include "checkpoint/checkpoint.hh"
#include "runner/sharded.hh"
#include "serve/client.hh"
#include "serve/proto.hh"

namespace simalpha {
namespace fleet {

Dispatcher::Dispatcher(FleetOptions options)
    : _opts(std::move(options)),
      _registry(_opts.workers, _opts.workerTimeoutSeconds,
                _opts.connectTimeoutSeconds, _opts.seed)
{
}

bool
Dispatcher::start(std::string *error)
{
    if (_registry.size() == 0) {
        if (error)
            *error = "no workers configured";
        return false;
    }
    if (_registry.probeAll() > 0)
        return true;
    if (error) {
        std::string detail;
        for (const WorkerStatus &w : _registry.snapshot()) {
            if (!detail.empty())
                detail += "; ";
            detail += w.address + ": " +
                      (w.lastError.empty() ? "unreachable"
                                           : w.lastError);
        }
        *error = "no live workers (" + detail + ")";
    }
    return false;
}

serve::JobExecutor
Dispatcher::executor()
{
    return [this](const runner::LaunchOptions &launch) {
        return execute(launch);
    };
}

bool
Dispatcher::ensureStore(const std::string &root, std::string *error)
{
    if (_store && _store->isOpen())
        return true;
    auto fresh = std::make_unique<store::ResultStore>();
    if (!fresh->open(root, error))
        return false;
    _store = std::move(fresh);
    return true;
}

void
Dispatcher::syncAll(const std::string &root,
                    const std::vector<std::size_t> &live,
                    std::uint64_t pullNewerThanSeconds)
{
    const bool pull = pullNewerThanSeconds > 0;
    const std::string what = pull ? "sync pull" : "sync push";
    std::lock_guard<std::mutex> lock(_mu);
    std::string error;
    if (!ensureStore(root, &error)) {
        _stats.lastSyncError = what + ": " + error;
        return;
    }
    for (std::size_t w : live) {
        serve::ClientOptions copts = _registry.clientFor(w);
        if (copts.timeoutSeconds <= 0.0)
            copts.timeoutSeconds = 120.0;   // whole-store transfers
        std::uint64_t moved = 0;
        if (pull ? serve::syncPull(copts, _store.get(),
                                   pullNewerThanSeconds, &moved, &error)
                 : serve::syncPush(copts, *_store, store::ExportFilter{},
                                   &moved, &error))
            (pull ? _stats.syncPulledEntries : _stats.syncPushedEntries) +=
                moved;
        else
            _stats.lastSyncError = what + (pull ? " from " : " to ") +
                                   copts.connect + ": " + error;
    }
}

runner::LaunchOutcome
Dispatcher::execute(const runner::LaunchOptions &launch)
{
    const runner::CampaignSpec spec = runner::launchSpec(launch);
    {
        std::lock_guard<std::mutex> lock(_mu);
        _stats.jobs++;
    }
    const std::string sampleText =
        launch.sample.enabled()
            ? checkpoint::formatSampleSpec(launch.sample)
            : std::string();
    std::size_t sliceCount = 0;

    // Replay first: a restarted dispatcher (or a warm resubmit)
    // re-serves settled cells byte-identically and dispatches only
    // the remainder. Every line then reaches the master journal and
    // the subscribers in spec order — the order a single-host
    // `--jobs 1` run settles in, whatever order workers deliver in.
    runner::ShardedOptions so;
    so.journalPath = launch.journalPath;
    so.journalSync = launch.journalSync;
    so.resume = true;
    so.cancel = launch.cancel;
    so.sink = [&](const std::string &line, bool ok, bool replayed) {
        launch.onLine(line, ok, replayed);
        std::lock_guard<std::mutex> lock(_mu);
        (replayed ? _stats.cellsReplayed : _stats.cellsMerged)++;
    };
    // The server only flips launch.cancel; forward a protocol cancel for
    // every slice identity so the workers' streams settle promptly.
    so.onCancel = [&] {
        for (std::size_t w : _registry.liveWorkers()) {
            serve::ClientOptions copts = _registry.clientFor(w);
            if (copts.timeoutSeconds <= 0.0)
                copts.timeoutSeconds = 10.0;
            for (std::size_t i = 0; i < sliceCount; i++) {
                serve::Request req;
                req.op = "cancel";
                req.campaign = runner::shardCampaignName(
                    launch.campaign, i, sliceCount);
                req.maxInsts = launch.maxInsts;
                req.sample = sampleText;
                std::string reply, cerror;
                serve::requestOnce(copts, serve::requestLine(req),
                                   &reply, &cerror);
            }
        }
    };
    runner::ShardedRun run(spec, so);
    runner::LaunchOutcome out;
    if (run.unsettled() == 0)
        return out;     // fully replayed: nothing to probe or dispatch

    // Fresh probe brings restarted workers back before partitioning.
    _registry.probeAll();
    const std::vector<std::size_t> live = _registry.liveWorkers();
    if (live.empty())
        throw std::runtime_error("no live workers for campaign '" +
                                 launch.campaign + "'");

    if (_opts.syncStores)
        syncAll(launch.storePath, live, 0);

    const auto startedAt = std::chrono::steady_clock::now();

    // One slice per live worker, never more slices than cells. Each
    // slice is a self-describing sub-campaign the worker re-derives
    // from its name alone.
    sliceCount = std::min(live.size(), spec.cells.size());

    // The serve-socket transport: submit the slice to a live worker;
    // a worker that fails terminally is marked dead and the slice
    // re-dispatched to the next one. Worker-side job journals make
    // every re-dispatch resume, never recompute.
    auto transport = [&](const runner::Slice &slice,
                         runner::ShardedRun &r, std::string *error) {
        const std::string shardName = runner::shardCampaignName(
            launch.campaign, slice.index, slice.count);
        std::string lastError = "never dispatched";
        std::size_t rotation = slice.index;     // start on "its" worker
        for (int dispatch = 0;
             dispatch <= _opts.maxRedispatch && !r.stopping();
             dispatch++) {
            const std::vector<std::size_t> liveNow =
                _registry.liveWorkers();
            if (liveNow.empty()) {
                lastError = "no live workers left";
                break;
            }
            const std::size_t worker = liveNow[rotation++ % liveNow.size()];
            {
                std::lock_guard<std::mutex> lock(_mu);
                _stats.shardsDispatched++;
                _stats.redispatches += dispatch > 0;
            }
            serve::ClientOptions copts = _registry.clientFor(worker);
            copts.maxRetries = _opts.maxRetries;
            copts.backoffSeconds = _opts.backoffSeconds;
            std::uint64_t delivered = 0;
            const serve::SubmitOutcome o = serve::submitCampaign(
                copts, shardName, launch.maxInsts, sampleText, false,
                [&](const std::string &line) {
                    delivered++;
                    r.deliver(line);
                });
            auto it = o.doneStrings.find("outcome");
            const std::string outcome =
                it == o.doneStrings.end() ? "" : it->second;
            if (o.ok && outcome == "complete") {
                _registry.noteDispatch(worker, delivered, "");
                return true;
            }
            lastError = "worker " + copts.connect +
                        (o.ok ? " finished shard '" + shardName +
                                    "' with outcome '" + outcome + "'"
                              : ": " + o.error);
            _registry.noteDispatch(worker, delivered, lastError);
            if (outcome == "cancelled" && r.stopping())
                return true;    // our own cancel, propagated
            // Protocol-level rejections leave the worker alive (the
            // next dispatch may fit); transport failures that survived
            // the client's own retries mean the daemon is gone until a
            // probe says otherwise.
            if (!o.ok && o.errorCode.empty())
                _registry.markDead(worker, lastError);
        }
        if (r.stopping())
            return true;
        *error = "shard '" + shardName + "' failed: " + lastError;
        return false;
    };
    const runner::ShardedOutcome done = run.run(sliceCount, transport);

    if (done.cancelled)
        return out;     // the server settles the job as cancelled
    if (!done.failure.empty())
        throw std::runtime_error(done.failure);
    if (!done.missing.empty()) {
        std::ostringstream os;
        os << "fleet merge incomplete: "
           << spec.cells.size() - done.missing.size() << " of "
           << spec.cells.size() << " cells arrived";
        throw std::runtime_error(os.str());
    }

    // Harvest what the workers published during this job (mtime
    // filter, with slack for clock coarseness) so the next run of any
    // overlapping campaign is warm on the dispatcher too.
    if (_opts.syncStores) {
        const auto elapsed =
            std::chrono::duration_cast<std::chrono::seconds>(
                std::chrono::steady_clock::now() - startedAt)
                .count();
        syncAll(launch.storePath, _registry.liveWorkers(),
                std::uint64_t(elapsed) + 120);
    }
    return out;
}

FleetStats
Dispatcher::stats() const
{
    std::lock_guard<std::mutex> lock(_mu);
    return _stats;
}

std::vector<WorkerStatus>
Dispatcher::workers() const
{
    return _registry.snapshot();
}

} // namespace fleet
} // namespace simalpha
