#include "fleet/dispatcher.hh"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <fstream>
#include <iterator>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "checkpoint/checkpoint.hh"
#include "runner/artifacts.hh"
#include "runner/campaign.hh"
#include "runner/journal.hh"
#include "serve/client.hh"
#include "serve/proto.hh"

namespace simalpha {
namespace fleet {

namespace {

std::string
cancelRequestLine(const std::string &campaign, std::uint64_t maxInsts,
                  const std::string &sample)
{
    std::ostringstream os;
    os << "{\"op\":\"cancel\",\"campaign\":\""
       << runner::jsonEscape(campaign) << "\"";
    if (maxInsts)
        os << ",\"max_insts\":" << maxInsts;
    if (!sample.empty())
        os << ",\"sample\":\"" << runner::jsonEscape(sample) << "\"";
    os << "}";
    return os.str();
}

} // namespace

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
    return [this](const serve::JobWork &work) { execute(work); };
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
Dispatcher::syncPushAll(const std::string &root,
                        const std::vector<std::size_t> &live)
{
    std::string serror;
    {
        std::lock_guard<std::mutex> lock(_mu);
        if (!ensureStore(root, &serror)) {
            _stats.lastSyncError = "sync push: " + serror;
            return;
        }
    }
    for (std::size_t w : live) {
        serve::ClientOptions copts = _registry.clientFor(w);
        if (copts.timeoutSeconds <= 0.0)
            copts.timeoutSeconds = 120.0;   // whole-store transfers
        std::uint64_t pushed = 0;
        std::string error;
        std::lock_guard<std::mutex> lock(_mu);
        if (serve::syncPush(copts, *_store, store::ExportFilter{},
                            &pushed, &error))
            _stats.syncPushedEntries += pushed;
        else
            _stats.lastSyncError =
                "sync push to " + copts.connect + ": " + error;
    }
}

void
Dispatcher::syncPullAll(const std::string &root,
                        const std::vector<std::size_t> &live,
                        std::uint64_t newerThanSeconds)
{
    std::string serror;
    {
        std::lock_guard<std::mutex> lock(_mu);
        if (!ensureStore(root, &serror)) {
            _stats.lastSyncError = "sync pull: " + serror;
            return;
        }
    }
    for (std::size_t w : live) {
        serve::ClientOptions copts = _registry.clientFor(w);
        if (copts.timeoutSeconds <= 0.0)
            copts.timeoutSeconds = 120.0;
        std::uint64_t pulled = 0;
        std::string error;
        std::lock_guard<std::mutex> lock(_mu);
        if (serve::syncPull(copts, _store.get(), newerThanSeconds,
                            &pulled, &error))
            _stats.syncPulledEntries += pulled;
        else
            _stats.lastSyncError =
                "sync pull from " + copts.connect + ": " + error;
    }
}

void
Dispatcher::execute(const serve::JobWork &work)
{
    const runner::CampaignSpec &spec = *work.spec;
    const std::size_t cellCount = spec.cells.size();
    {
        std::lock_guard<std::mutex> lock(_mu);
        _stats.jobs++;
    }

    // Expected cell keys in spec order — the merge barrier.
    std::vector<std::string> keys(cellCount);
    for (std::size_t i = 0; i < cellCount; i++)
        keys[i] = runner::journalKey(spec.cells[i]);

    // Replay the master journal first: a restarted dispatcher (or a
    // warm resubmit) re-serves settled cells byte-identically and
    // dispatches only the remainder. Torn final lines are discarded,
    // exactly as loadJournal() does.
    std::unordered_map<std::string, std::string> lineByKey;
    std::unordered_set<std::string> journaled;
    {
        std::ifstream in(work.journalPath, std::ios::binary);
        if (in.is_open()) {
            std::string text((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
            std::size_t pos = 0;
            while (pos < text.size()) {
                std::size_t nl = text.find('\n', pos);
                if (nl == std::string::npos)
                    break;
                std::string line = text.substr(pos, nl - pos);
                pos = nl + 1;
                runner::CellResult r;
                std::string key;
                if (runner::parseJournalLine(line, spec.name, &r,
                                             &key)) {
                    lineByKey[key] = line;  // newest wins
                    journaled.insert(key);
                }
            }
        }
    }

    runner::CampaignJournal journal;
    std::string jerror;
    if (!journal.open(work.journalPath, &jerror, _opts.journalSync))
        throw std::runtime_error("cannot open master journal " +
                                 work.journalPath + ": " + jerror);

    std::mutex mu;          // guards lineByKey, journaled, cursor
    std::size_t cursor = 0;

    // Emit every spec-order cell whose line has arrived. Clients and
    // the master journal see lines in exactly the order a single-host
    // `--jobs 1` run settles them, whatever order workers deliver in —
    // that ordering is the whole byte-identity argument. Call with mu
    // held.
    auto emitReady = [&]() {
        while (cursor < cellCount) {
            auto it = lineByKey.find(keys[cursor]);
            if (it == lineByKey.end())
                break;
            const bool replayed = journaled.count(keys[cursor]) != 0;
            if (!replayed) {
                journal.appendRaw(it->second);
                journaled.insert(keys[cursor]);
            }
            runner::CellResult r;
            std::string key;
            const bool ok = runner::parseJournalLine(
                                it->second, spec.name, &r, &key) &&
                            r.ok;
            work.emit(it->second, ok, replayed);
            {
                std::lock_guard<std::mutex> slock(_mu);
                if (replayed)
                    _stats.cellsReplayed++;
                else
                    _stats.cellsMerged++;
            }
            cursor++;
        }
    };

    {
        std::lock_guard<std::mutex> lock(mu);
        emitReady();
    }
    if (cursor >= cellCount) {
        journal.close();
        return;     // fully warm: nothing to dispatch
    }

    // Fresh probe brings restarted workers back before partitioning.
    _registry.probeAll();
    const std::vector<std::size_t> live = _registry.liveWorkers();
    if (live.empty())
        throw std::runtime_error("no live workers for campaign '" +
                                 work.campaign + "'");

    const std::string sampleText =
        work.sample.enabled()
            ? checkpoint::formatSampleSpec(work.sample)
            : std::string();

    if (_opts.syncStores)
        syncPushAll(work.storePath, live);

    const auto startedAt = std::chrono::steady_clock::now();

    // One shard per live worker, never more shards than cells. Each
    // shard is a self-describing sub-campaign the worker re-derives
    // from its name alone.
    std::size_t shardCount = live.size();
    if (cellCount && shardCount > cellCount)
        shardCount = cellCount;
    std::vector<std::string> shardNames(shardCount);
    for (std::size_t i = 0; i < shardCount; i++)
        shardNames[i] =
            runner::shardCampaignName(work.campaign, i, shardCount);

    std::atomic<bool> failed{false};
    std::mutex failMu;
    std::string failure;

    auto runShard = [&](std::size_t shardIndex) {
        const std::string &shardName = shardNames[shardIndex];
        std::string lastError = "never dispatched";
        std::size_t rotation = shardIndex;  // start on "its" worker
        for (int dispatch = 0; dispatch <= _opts.maxRedispatch;
             dispatch++) {
            if (failed.load() ||
                (work.cancel && work.cancel->load()))
                return;
            const std::vector<std::size_t> liveNow =
                _registry.liveWorkers();
            if (liveNow.empty()) {
                lastError = "no live workers left";
                break;
            }
            const std::size_t worker =
                liveNow[rotation % liveNow.size()];
            rotation++;
            _registry.noteDispatched(worker);
            {
                std::lock_guard<std::mutex> lock(_mu);
                _stats.shardsDispatched++;
                if (dispatch > 0)
                    _stats.redispatches++;
            }
            serve::ClientOptions copts = _registry.clientFor(worker);
            copts.maxRetries = _opts.maxRetries;
            copts.backoffSeconds = _opts.backoffSeconds;
            std::uint64_t delivered = 0;
            const serve::SubmitOutcome o = serve::submitCampaign(
                copts, shardName, work.maxInsts, sampleText, false,
                [&](const std::string &line) {
                    delivered++;
                    std::lock_guard<std::mutex> lock(mu);
                    runner::CellResult r;
                    std::string key;
                    if (!runner::parseJournalLine(line, spec.name,
                                                  &r, &key))
                        return;
                    // Duplicate deliveries (attach replays after a
                    // torn stream, a re-dispatched shard) are
                    // byte-identical; first one wins.
                    if (!lineByKey.count(key))
                        lineByKey[key] = line;
                    emitReady();
                });
            _registry.noteLines(worker, delivered);
            if (o.ok) {
                std::string outcome;
                auto it = o.doneStrings.find("outcome");
                if (it != o.doneStrings.end())
                    outcome = it->second;
                if (outcome == "complete") {
                    _registry.noteCompleted(worker);
                    return;
                }
                if (outcome == "cancelled" && work.cancel &&
                    work.cancel->load())
                    return;     // our own cancel, propagated
                lastError = "worker " + copts.connect +
                            " finished shard '" + shardName +
                            "' with outcome '" + outcome + "'";
                _registry.noteFailed(worker, lastError);
            } else {
                lastError =
                    "worker " + copts.connect + ": " + o.error;
                _registry.noteFailed(worker, lastError);
                // Protocol-level rejections leave the worker alive
                // (the next dispatch may fit); transport failures
                // that survived the client's own retries mean the
                // daemon is gone until a probe says otherwise.
                if (o.errorCode.empty())
                    _registry.markDead(worker, lastError);
            }
        }
        bool expected = false;
        if (failed.compare_exchange_strong(expected, true)) {
            std::lock_guard<std::mutex> lock(failMu);
            failure =
                "shard '" + shardName + "' failed: " + lastError;
        }
    };

    // Cancel monitor: the server only flips work.cancel; someone has
    // to tell the workers. Forward protocol cancels for every shard
    // identity so their streams settle as "cancelled" promptly.
    // The cancel flag is polled (its setter does not notify us), but
    // the end of the shards wakes the monitor at once: joining it
    // must not add a poll period to every job.
    std::mutex finishMu;
    std::condition_variable finishCv;
    bool finishing = false;
    std::thread cancelMonitor;
    if (work.cancel) {
        cancelMonitor = std::thread([&]() {
            std::unique_lock<std::mutex> lock(finishMu);
            while (!finishing) {
                if (work.cancel->load()) {
                    lock.unlock();
                    for (std::size_t w : _registry.liveWorkers()) {
                        serve::ClientOptions copts =
                            _registry.clientFor(w);
                        if (copts.timeoutSeconds <= 0.0)
                            copts.timeoutSeconds = 10.0;
                        for (const std::string &name : shardNames) {
                            std::string reply, cerror;
                            serve::requestOnce(
                                copts,
                                cancelRequestLine(name, work.maxInsts,
                                                  sampleText),
                                &reply, &cerror);
                        }
                    }
                    return;
                }
                finishCv.wait_for(lock, std::chrono::milliseconds(50),
                                  [&] { return finishing; });
            }
        });
    }

    std::vector<std::thread> threads;
    threads.reserve(shardCount);
    for (std::size_t i = 0; i < shardCount; i++)
        threads.emplace_back(runShard, i);
    for (std::thread &t : threads)
        t.join();
    {
        std::lock_guard<std::mutex> lock(finishMu);
        finishing = true;
    }
    finishCv.notify_all();
    if (cancelMonitor.joinable())
        cancelMonitor.join();

    journal.close();

    if (work.cancel && work.cancel->load())
        return;     // the server settles the job as cancelled

    if (failed.load()) {
        std::lock_guard<std::mutex> lock(failMu);
        throw std::runtime_error(failure);
    }

    {
        std::lock_guard<std::mutex> lock(mu);
        if (cursor < cellCount) {
            std::ostringstream os;
            os << "fleet merge incomplete: " << cursor << " of "
               << cellCount << " cells arrived";
            throw std::runtime_error(os.str());
        }
    }

    // Harvest what the workers published during this job (mtime
    // filter, with slack for clock coarseness) so the next run of any
    // overlapping campaign is warm on the dispatcher too.
    if (_opts.syncStores) {
        const auto elapsed =
            std::chrono::duration_cast<std::chrono::seconds>(
                std::chrono::steady_clock::now() - startedAt)
                .count();
        syncPullAll(work.storePath, _registry.liveWorkers(),
                    std::uint64_t(elapsed) + 120);
    }
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
