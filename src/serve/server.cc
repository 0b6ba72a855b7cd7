#include "serve/server.hh"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "common/error.hh"
#include "common/logging.hh"
#include "runner/shard.hh"
#include "store/store.hh"

namespace simalpha {
namespace serve {

using Clock = std::chrono::steady_clock;

namespace {

/** Per-connection output high-water mark: a subscriber that cannot
 *  drain this much buffered result data is dead or pathologically
 *  slow, and is dropped so one stuck client cannot grow the daemon's
 *  memory without bound. The campaign keeps running and journaling. */
constexpr std::size_t kMaxConnOutBytes = 4 * 1024 * 1024;

/** Finished jobs whose line buffers stay resident for instant
 *  replay; older ones are evicted (their journals remain on disk, so
 *  a resubmission replays byte-identically, just via the journal). */
constexpr std::size_t kMaxDoneJobsRetained = 8;

bool
setNonBlocking(int fd)
{
    int flags = ::fcntl(fd, F_GETFL, 0);
    return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

bool
ensureDir(const std::string &path, std::string *error)
{
    if (::mkdir(path.c_str(), 0755) == 0 || errno == EEXIST)
        return true;
    if (error)
        *error = "cannot create directory '" + path +
                 "': " + std::strerror(errno);
    return false;
}

/** Best-effort blocking-ish write used only for reject-at-accept and
 *  final flushes; regular traffic goes through the buffered path. */
void
writeAll(int fd, const std::string &data)
{
    std::size_t off = 0;
    int spins = 0;
    while (off < data.size() && spins < 1000) {
        ssize_t n = ::write(fd, data.data() + off, data.size() - off);
        if (n > 0) {
            off += std::size_t(n);
            continue;
        }
        if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
            errno != EINTR)
            return;
        spins++;
        ::usleep(1000);
    }
}

} // namespace

std::string
jobKey(const std::string &campaign, std::uint64_t maxInsts,
       const checkpoint::SampleSpec &sample)
{
    std::string key = campaign;
    key += '\x1f';
    key += std::to_string(maxInsts);
    key += '\x1f';
    if (sample.enabled())
        key += checkpoint::formatSampleSpec(sample);
    return key;
}

std::string
jobIdFromKey(const std::string &key)
{
    return store::ResultStore::keyHash(key);
}

std::string
jobJournalPath(const std::string &storePath, const std::string &jobId)
{
    return storePath + "/serve.d/job-" + jobId + ".journal.jsonl";
}

// ---------------------------------------------------------------
// Internal state
// ---------------------------------------------------------------

struct Server::Job
{
    enum class St { Pending, Running, Done };

    std::string key;
    std::string id;
    std::string campaign;
    /** Cells of the derived spec; the executor derives the spec
     *  again from the identity, so no job holds one while queued or
     *  retained. */
    std::size_t cells = 0;
    std::uint64_t maxInsts = 0;     ///< as submitted (job identity)
    checkpoint::SampleSpec sample;  ///< as submitted (job identity)
    std::string journalPath;

    St state = St::Pending;
    std::atomic<bool> cancel{false};
    bool cancelled = false;         ///< finished via cancellation
    bool failed = false;            ///< aborted by an exception
    std::string failError;

    /** Verbatim journal-line bytes, in settle order. */
    std::vector<std::string> lines;
    std::size_t okCells = 0;
    std::size_t failedCells = 0;

    int subscribers = 0;
    std::uint64_t doneSeq = 0;      ///< eviction order among Done jobs
};

struct Server::Conn
{
    int fd = -1;
    std::string in;
    std::string out;
    bool closing = false;           ///< flush out, then close
    bool dropped = false;           ///< cut without final flush

    std::shared_ptr<Job> sub;       ///< job this conn streams from
    std::size_t cursor = 0;         ///< job lines already buffered
    bool doneSent = false;

    std::size_t cellsSubmitted = 0; ///< lifetime budget accounting

    /** Sync push in progress: store dump lines still expected (the
     *  per-line cap is kMaxSyncLineBytes while nonzero). */
    std::uint64_t syncRemaining = 0;
    std::uint64_t syncImported = 0;
};

struct Server::State
{
    mutable std::mutex mu;
    std::condition_variable cv;

    std::map<std::string, std::shared_ptr<Job>> jobs;  ///< by key
    std::deque<std::shared_ptr<Job>> pending;
    std::shared_ptr<Job> running;

    bool draining = false;
    bool stopExec = false;
    bool storeDegraded = false;
    std::uint64_t doneCounter = 0;

    ServeStats stats;
};

Server::Server(ServeOptions options)
    : _opts(std::move(options)), _state(new State)
{
}

Server::~Server()
{
    {
        std::lock_guard<std::mutex> lock(_state->mu);
        _state->stopExec = true;
        if (_state->running)
            _state->running->cancel.store(true);
    }
    _state->cv.notify_all();
    if (_executor.joinable())
        _executor.join();
    if (_listenFd >= 0)
        ::close(_listenFd);
    if (_wakeFd[0] >= 0)
        ::close(_wakeFd[0]);
    if (_wakeFd[1] >= 0)
        ::close(_wakeFd[1]);
    if (!_boundAddress.empty() &&
        _boundAddress.rfind("tcp:", 0) != 0)
        ::unlink(_boundAddress.c_str());
}

bool
Server::start(std::string *error)
{
    if (_opts.storePath.empty()) {
        if (error)
            *error = "serve needs a --store directory (results and "
                     "job journals live there)";
        return false;
    }
    if (!ensureDir(_opts.storePath, error) ||
        !ensureDir(_opts.storePath + "/serve.d", error))
        return false;

    if (::pipe(_wakeFd) != 0 || !setNonBlocking(_wakeFd[0]) ||
        !setNonBlocking(_wakeFd[1])) {
        if (error)
            *error = "cannot create the wake pipe";
        return false;
    }

    std::string listen = _opts.listen;
    if (listen.empty())
        listen = _opts.storePath + "/serve.sock";

    if (listen.rfind("tcp:", 0) == 0) {
        std::string host;
        std::uint16_t port = 0;
        if (!parseTcpAddress(listen, &host, &port, error))
            return false;
        const bool hostGiven = listen.find(':', 4) != std::string::npos;
        _listenFd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (_listenFd < 0) {
            if (error)
                *error = std::string("cannot create TCP socket: ") +
                         std::strerror(errno);
            return false;
        }
        int one = 1;
        ::setsockopt(_listenFd, SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof(one));
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
            if (error)
                *error = "cannot bind " + listen + ": '" + host +
                         "' is not an IPv4 address";
            return false;
        }
        addr.sin_port = htons(port);
        if (::bind(_listenFd, reinterpret_cast<sockaddr *>(&addr),
                   sizeof(addr)) != 0) {
            if (error)
                *error = "cannot bind " + listen + " (host " + host +
                         ", port " + std::to_string(port) +
                         "): " + std::strerror(errno);
            return false;
        }
        socklen_t len = sizeof(addr);
        ::getsockname(_listenFd, reinterpret_cast<sockaddr *>(&addr),
                      &len);
        // Keep the bare "tcp:PORT" spelling when no host was named,
        // so pre-fleet callers see the address shape they passed.
        _boundAddress =
            hostGiven ? "tcp:" + host + ":" +
                            std::to_string(ntohs(addr.sin_port))
                      : "tcp:" + std::to_string(ntohs(addr.sin_port));
    } else {
        sockaddr_un addr{};
        if (listen.size() >= sizeof(addr.sun_path)) {
            if (error)
                *error = "socket path '" + listen +
                         "' exceeds the sockaddr_un limit";
            return false;
        }
        _listenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (_listenFd < 0) {
            if (error)
                *error = "cannot create Unix socket";
            return false;
        }
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, listen.c_str(),
                     sizeof(addr.sun_path) - 1);
        if (::bind(_listenFd, reinterpret_cast<sockaddr *>(&addr),
                   sizeof(addr)) != 0 &&
            errno == EADDRINUSE) {
            // A leftover socket of a killed daemon, or a live one?
            // Only a live daemon accepts the probe connection.
            int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
            bool live =
                probe >= 0 &&
                ::connect(probe, reinterpret_cast<sockaddr *>(&addr),
                          sizeof(addr)) == 0;
            if (probe >= 0)
                ::close(probe);
            if (live) {
                if (error)
                    *error = "another daemon is already serving on " +
                             listen;
                return false;
            }
            ::unlink(listen.c_str());
            if (::bind(_listenFd,
                       reinterpret_cast<sockaddr *>(&addr),
                       sizeof(addr)) != 0) {
                if (error)
                    *error = "cannot bind " + listen + ": " +
                             std::strerror(errno);
                return false;
            }
        }
        _boundAddress = listen;
    }

    if (::listen(_listenFd, 16) != 0) {
        if (error)
            *error = std::string("listen failed: ") +
                     std::strerror(errno);
        return false;
    }
    setNonBlocking(_listenFd);

    _startTime = Clock::now();
    _executor = std::thread([this] { executorLoop(); });
    return true;
}

bool
Server::ensureSyncStore(std::string *error)
{
    if (_syncStore && _syncStore->isOpen())
        return true;
    if (!_syncStore)
        _syncStore.reset(new store::ResultStore);
    return _syncStore->open(_opts.storePath, error);
}

void
Server::requestShutdown()
{
    _shutdownRequested.store(true);
    wake();
}

ServeStats
Server::stats() const
{
    std::lock_guard<std::mutex> lock(_state->mu);
    return _state->stats;
}

void
Server::wake()
{
    char b = 'w';
    ssize_t n = ::write(_wakeFd[1], &b, 1);
    (void)n;    // a full pipe already guarantees a pending wake-up
}

// ---------------------------------------------------------------
// Executor thread: runs one job at a time off the pending queue.
// ---------------------------------------------------------------

void
Server::executorLoop()
{
    for (;;) {
        std::shared_ptr<Job> job;
        {
            std::unique_lock<std::mutex> lock(_state->mu);
            _state->cv.wait_for(
                lock, std::chrono::milliseconds(5), [&] {
                    return _state->stopExec ||
                           !_state->pending.empty();
                });
            if (_state->stopExec)
                return;
            if (_state->pending.empty())
                continue;
            if (_opts.testHoldExecutor &&
                _opts.testHoldExecutor->load())
                continue;
            job = _state->pending.front();
            _state->pending.pop_front();
            if (job->cancel.load()) {
                // Cancelled while queued: settle without running.
                job->state = Job::St::Done;
                job->cancelled = true;
                job->doneSeq = ++_state->doneCounter;
                _state->stats.jobsDone++;
                evictDoneJobsLocked();
                lock.unlock();
                wake();
                continue;
            }
            job->state = Job::St::Running;
            _state->running = job;
        }

        runJob(job);

        {
            std::lock_guard<std::mutex> lock(_state->mu);
            job->state = Job::St::Done;
            job->cancelled = job->cancel.load();
            job->doneSeq = ++_state->doneCounter;
            _state->running.reset();
            _state->stats.jobsDone++;
            evictDoneJobsLocked();
        }
        wake();
    }
}

void
Server::runJob(const std::shared_ptr<Job> &job)
{
    // Every job runs with resume against its own journal, so a
    // restarted daemon replays what a killed one settled.
    runner::LaunchOptions launch;
    launch.campaign = job->campaign;
    launch.maxInsts = job->maxInsts;
    launch.sample = job->sample;
    launch.isolate = _opts.isolate;
    launch.jobs = _opts.jobs;
    launch.shards = _opts.shards;
    launch.workerBinary = _opts.workerBinary;
    launch.storePath = _opts.storePath;
    launch.journalPath = job->journalPath;
    launch.resume = true;
    launch.journalSync = _opts.journalSync;
    launch.cancel = &job->cancel;
    // Every settled cell — computed, store/cache hit, or replayed
    // from the job journal of a killed daemon — lands here as the
    // verbatim line bytes the journal holds, then fans out to every
    // subscriber via the wake pipe.
    launch.onLine = [this, &job](const std::string &line, bool ok,
                                 bool served) {
        {
            std::lock_guard<std::mutex> lock(_state->mu);
            job->lines.push_back(line);
            if (ok)
                job->okCells++;
            else
                job->failedCells++;
            if (served)
                _state->stats.cellsServed++;
            else
                _state->stats.cellsComputed++;
        }
        wake();
    };

    try {
        if (_opts.executor(launch).storeDegraded) {
            std::lock_guard<std::mutex> lock(_state->mu);
            _state->storeDegraded = true;
        }
    } catch (const std::exception &e) {
        std::lock_guard<std::mutex> lock(_state->mu);
        job->failed = true;
        job->failError = e.what();
    }
}

// ---------------------------------------------------------------
// Poll loop (the run() thread owns every socket).
// ---------------------------------------------------------------

void
Server::startDrain()
{
    {
        std::lock_guard<std::mutex> lock(_state->mu);
        if (_state->draining)
            return;
        _state->draining = true;
    }
    _state->cv.notify_all();
}

void
Server::evictDoneJobsLocked()
{
    // Called with _state->mu held. Jobs stay keyed while retained so
    // a resubmission attaches to the in-memory lines; evicted jobs
    // replay from their journal instead — same bytes, slower path.
    for (;;) {
        std::size_t doneFree = 0;
        std::map<std::string, std::shared_ptr<Job>>::iterator oldest =
            _state->jobs.end();
        for (auto it = _state->jobs.begin(); it != _state->jobs.end();
             ++it) {
            Job &j = *it->second;
            if (j.state != Job::St::Done || j.subscribers > 0)
                continue;
            doneFree++;
            if (oldest == _state->jobs.end() ||
                j.doneSeq < oldest->second->doneSeq)
                oldest = it;
        }
        if (doneFree <= kMaxDoneJobsRetained ||
            oldest == _state->jobs.end())
            return;
        _state->jobs.erase(oldest);
    }
}

void
Server::flushConn(Conn &conn)
{
    if (!conn.sub || conn.dropped)
        return;
    bool finished = false;
    {
        std::lock_guard<std::mutex> lock(_state->mu);
        Job &job = *conn.sub;
        while (conn.cursor < job.lines.size()) {
            conn.out += job.lines[conn.cursor];
            conn.out += '\n';
            conn.cursor++;
        }
        if (job.state == Job::St::Done && !conn.doneSent) {
            if (job.failed)
                conn.out +=
                    errorLine("job_failed", job.failError) + "\n";
            conn.out += doneLine(job.campaign, job.id, job.cells,
                                 job.okCells, job.failedCells,
                                 job.failed      ? "failed"
                                 : job.cancelled ? "cancelled"
                                                 : "complete") +
                        "\n";
            conn.doneSent = true;
            finished = true;
            job.subscribers--;
        }
    }
    if (finished) {
        conn.sub.reset();
        conn.cursor = 0;
        conn.doneSent = false;
    }
    if (conn.out.size() > kMaxConnOutBytes) {
        // A subscriber this far behind is dead or wedged: cut it.
        conn.dropped = true;
        std::lock_guard<std::mutex> lock(_state->mu);
        _state->stats.clientsDropped++;
        if (conn.sub)
            conn.sub->subscribers--;
    }
}

std::uint64_t
Server::cellCap(const Conn &conn, bool submission) const
{
    std::uint64_t cap = std::numeric_limits<std::uint64_t>::max();
    if (_opts.maxCellsPerCampaign)
        cap = _opts.maxCellsPerCampaign;
    if (_opts.maxClientCells)
        cap = std::min<std::uint64_t>(
            cap, _opts.maxClientCells -
                     (submission ? conn.cellsSubmitted : 0));
    return cap;
}

bool
Server::rejectOverBudget(Conn &conn, std::uint64_t cells, bool submission)
{
    if (cells <= cellCap(conn, submission))
        return false;
    std::string why;
    if (_opts.maxCellsPerCampaign && cells > _opts.maxCellsPerCampaign)
        why = "campaign has " + std::to_string(cells) +
              " cells; this daemon accepts at most " +
              std::to_string(_opts.maxCellsPerCampaign) +
              " per submission";
    else
        why = "client cell budget exhausted (" +
              std::to_string(conn.cellsSubmitted) + " of " +
              std::to_string(_opts.maxClientCells) +
              " used; campaign needs " + std::to_string(cells) +
              " more)";
    std::lock_guard<std::mutex> lock(_state->mu);
    _state->stats.budgetRejections++;
    conn.out += errorLine("budget", why) + "\n";
    return true;
}

void
Server::handleSubmit(Conn &conn, const Request &req, bool allowRun)
{
    if (conn.sub) {
        conn.out += errorLine("bad_request",
                              "one result stream per connection; "
                              "wait for the done line") +
                    "\n";
        return;
    }

    // A vuln: name states its cell count: hold it to the budgets
    // before a single cell is built, or one name asking for a billion
    // cells exhausts the daemon's memory first. A bad campaign is
    // named before a bad sample.
    checkpoint::SampleSpec sample;
    std::string serror;
    const bool sampleOk =
        req.sample.empty() ||
        checkpoint::parseSampleSpec(req.sample, &sample, &serror);
    runner::CampaignSpec spec;
    std::uint64_t declared = 0;
    std::string lookupError;
    const runner::CampaignLookup found = runner::deriveCampaign(
        req.campaign, req.maxInsts, sample, &spec, &lookupError,
        cellCap(conn, true), &declared);
    if (found == runner::CampaignLookup::OverCap) {
        rejectOverBudget(conn, declared, true);
        return;
    }
    if (found == runner::CampaignLookup::Unknown) {
        conn.out += errorLine("unknown_campaign", lookupError) + "\n";
        return;
    }
    if (!sampleOk) {
        conn.out += errorLine("bad_request", "sample: " + serror) + "\n";
        return;
    }

    const std::string key = jobKey(req.campaign, req.maxInsts, sample);
    const std::string id = jobIdFromKey(key);
    const std::size_t cells = spec.cells.size();

    if (rejectOverBudget(conn, cells, true))
        return;

    std::shared_ptr<Job> job;
    std::size_t pendingAhead = 0;
    {
        std::lock_guard<std::mutex> lock(_state->mu);
        auto it = _state->jobs.find(key);
        if (it != _state->jobs.end()) {
            job = it->second;
            _state->stats.attaches++;
        } else if (!allowRun) {
            job = nullptr;      // results op never starts work
        } else if (_state->draining) {
            conn.out += errorLine("draining",
                                  "daemon is draining; no new "
                                  "submissions") +
                        "\n";
            return;
        } else if (_state->pending.size() >= _opts.maxPending) {
            _state->stats.busyRejections++;
            conn.out +=
                errorLine("busy",
                          "submission queue is full (" +
                              std::to_string(_state->pending.size()) +
                              " pending); retry with backoff") +
                "\n";
            return;
        } else {
            job = std::make_shared<Job>();
            job->key = key;
            job->id = id;
            job->campaign = req.campaign;
            job->cells = cells;
            job->maxInsts = req.maxInsts;
            job->sample = sample;
            job->journalPath =
                jobJournalPath(_opts.storePath, id);
            _state->jobs[key] = job;
            _state->pending.push_back(job);
            pendingAhead = _state->pending.size() - 1;
            _state->stats.submits++;
        }
        if (job) {
            job->subscribers++;
            conn.cellsSubmitted += cells;
        }
    }

    if (job) {
        _state->cv.notify_all();
        conn.sub = job;
        conn.cursor = 0;
        conn.doneSent = false;
        conn.out += acceptedLine(req.campaign, id, cells,
                                 pendingAhead) +
                    "\n";
        flushConn(conn);        // done jobs replay instantly
        return;
    }

    // results op, no live job: replay the on-disk journal if one
    // exists — the warm path of a restarted daemon — through the one
    // spec-level replay: newest line per cell, manifest-checked, in
    // spec order.
    const std::string path = jobJournalPath(_opts.storePath, id);
    if (::access(path.c_str(), F_OK) != 0) {
        conn.out += errorLine("not_found",
                              "no results for this submission (job " +
                                  id + "); submit it first") +
                    "\n";
        return;
    }
    runner::CampaignResult replay;
    std::vector<std::size_t> missing;
    std::vector<std::string> lines;
    runner::mergeShardJournals(spec, {path}, &replay, &missing, &lines);
    std::size_t ok = 0;
    conn.out += acceptedLine(req.campaign, id, cells, 0) + "\n";
    for (std::size_t i = 0; i < cells; i++) {
        if (lines[i].empty())
            continue;
        conn.out += lines[i];
        conn.out += '\n';
        ok += replay.cells[i].ok;
    }
    const std::size_t settled = cells - missing.size();
    conn.out += doneLine(req.campaign, id, cells, ok, settled - ok,
                         missing.empty() ? "complete" : "partial") +
                "\n";
}

void
Server::handleSync(Conn &conn, const Request &req)
{
    if (req.mode == "pull") {
        std::string serror;
        if (!ensureSyncStore(&serror)) {
            conn.out += errorLine("job_failed",
                                  "store unavailable: " + serror) +
                        "\n";
            return;
        }
        store::ExportFilter filter;
        filter.newerThanSeconds = double(req.newerThan);
        std::uint64_t exported = 0;
        if (!_syncStore->exportLines(
                filter,
                [&](const std::string &dump) {
                    conn.out += dump;
                    conn.out += '\n';
                    return true;
                },
                &exported, &serror)) {
            conn.out += errorLine("job_failed",
                                  "sync pull failed: " + serror) +
                        "\n";
            return;
        }
        conn.out += syncedLine("pull", exported) + "\n";
        return;
    }
    if (req.mode == "push") {
        if (req.entries == 0) {
            conn.out += syncedLine("push", 0) + "\n";
            return;
        }
        // The next req.entries lines on this connection are store
        // dump lines, not requests (and get the sync line cap).
        conn.syncRemaining = req.entries;
        conn.syncImported = 0;
        return;
    }
    std::lock_guard<std::mutex> lock(_state->mu);
    _state->stats.badRequests++;
    conn.out += errorLine("bad_request",
                          "sync needs mode \"pull\" or \"push\"") +
                "\n";
}

void
Server::handleSyncEntry(Conn &conn, const std::string &line)
{
    conn.syncRemaining--;
    std::string key, payload;
    std::string serror;
    if (store::ResultStore::parseExportLine(line, &key, &payload) &&
        ensureSyncStore(&serror) &&
        _syncStore->publish(key, payload, nullptr))
        conn.syncImported++;
    if (conn.syncRemaining == 0) {
        conn.out += syncedLine("push", conn.syncImported) + "\n";
        conn.syncImported = 0;
    }
}

void
Server::handleLine(Conn &conn, const std::string &line)
{
    if (conn.syncRemaining > 0) {
        handleSyncEntry(conn, line);
        return;
    }
    Request req;
    std::string perror;
    if (!parseRequest(line, &req, &perror)) {
        std::lock_guard<std::mutex> lock(_state->mu);
        _state->stats.badRequests++;
        conn.out += errorLine("bad_request", perror) + "\n";
        return;
    }

    if (req.op == "hello") {
        conn.out += helloLine(_opts.storePath, _opts.maxPending,
                              _opts.maxClients) +
                    "\n";
        return;
    }
    if (req.op == "health") {
        HealthSnapshot h;
        {
            std::lock_guard<std::mutex> lock(_state->mu);
            h.draining = _state->draining;
            h.storeDegraded = _state->storeDegraded;
            h.jobsPending = _state->pending.size();
            h.jobRunning = _state->running != nullptr;
            h.jobsDone = _state->stats.jobsDone;
            h.cellsComputed = _state->stats.cellsComputed;
            h.cellsServed = _state->stats.cellsServed;
            h.busyRejections = _state->stats.busyRejections;
        }
        h.clients = _clients;
        h.pid = std::uint64_t(::getpid());
        h.uptimeSeconds = std::uint64_t(
            std::chrono::duration_cast<std::chrono::seconds>(
                Clock::now() - _startTime)
                .count());
        h.storePath = _opts.storePath;
        conn.out += healthLine(h) + "\n";
        return;
    }
    if (req.op == "capabilities") {
        Capabilities caps;
        caps.storePath = _opts.storePath;
        caps.isolate = _opts.isolate;
        caps.maxPending = _opts.maxPending;
        caps.maxClients = _opts.maxClients;
        caps.maxCellsPerCampaign = _opts.maxCellsPerCampaign;
        caps.maxClientCells = _opts.maxClientCells;
        conn.out += capabilitiesLine(caps) + "\n";
        return;
    }
    if (req.op == "sync") {
        handleSync(conn, req);
        return;
    }
    if (req.op == "shutdown") {
        conn.out += drainingLine() + "\n";
        startDrain();
        return;
    }
    if (req.op == "submit" || req.op == "results") {
        if (req.campaign.empty()) {
            std::lock_guard<std::mutex> lock(_state->mu);
            _state->stats.badRequests++;
            conn.out += errorLine("bad_request",
                                  req.op + " needs a campaign") +
                        "\n";
            return;
        }
        handleSubmit(conn, req, req.op == "submit");
        return;
    }
    if (req.op == "status" || req.op == "cancel") {
        if (req.campaign.empty()) {
            std::lock_guard<std::mutex> lock(_state->mu);
            _state->stats.badRequests++;
            conn.out += errorLine("bad_request",
                                  req.op + " needs a campaign") +
                        "\n";
            return;
        }
        checkpoint::SampleSpec sample;
        std::string serror;
        if (!req.sample.empty() &&
            !checkpoint::parseSampleSpec(req.sample, &sample,
                                         &serror)) {
            conn.out +=
                errorLine("bad_request", "sample: " + serror) + "\n";
            return;
        }
        const std::string key =
            jobKey(req.campaign, req.maxInsts, sample);
        const std::string id = jobIdFromKey(key);

        std::shared_ptr<Job> job;
        {
            std::lock_guard<std::mutex> lock(_state->mu);
            auto it = _state->jobs.find(key);
            if (it != _state->jobs.end())
                job = it->second;
        }
        if (req.op == "cancel") {
            if (!job) {
                conn.out += errorLine("not_found",
                                      "no live job for this "
                                      "submission (job " +
                                          id + ")") +
                            "\n";
                return;
            }
            job->cancel.store(true);
            _state->cv.notify_all();
            conn.out += cancellingLine(req.campaign, id) + "\n";
            return;
        }
        // status
        if (job) {
            std::lock_guard<std::mutex> lock(_state->mu);
            const char *state =
                job->state == Job::St::Pending   ? "pending"
                : job->state == Job::St::Running ? "running"
                : job->failed                    ? "failed"
                : job->cancelled                 ? "cancelled"
                                                 : "done";
            conn.out += statusLine(req.campaign, id, state,
                                   job->lines.size(), job->cells) +
                        "\n";
            return;
        }
        runner::CampaignSpec spec;
        std::uint64_t declared = 0;
        if (runner::deriveCampaign(req.campaign, req.maxInsts, sample,
                                   &spec, nullptr, cellCap(conn, false),
                                   &declared) ==
            runner::CampaignLookup::OverCap) {
            rejectOverBudget(conn, declared, false);
            return;
        }
        const std::string path = jobJournalPath(_opts.storePath, id);
        if (::access(path.c_str(), F_OK) != 0) {
            conn.out += statusLine(req.campaign, id, "absent", 0,
                                   spec.cells.size()) +
                        "\n";
            return;
        }
        runner::CampaignResult replay;
        std::vector<std::size_t> missing;
        runner::mergeShardJournals(spec, {path}, &replay, &missing);
        conn.out += statusLine(req.campaign, id, "journal",
                               spec.cells.size() - missing.size(),
                               spec.cells.size()) +
                    "\n";
        return;
    }

    {
        std::lock_guard<std::mutex> lock(_state->mu);
        _state->stats.badRequests++;
    }
    conn.out += errorLine("bad_request",
                          "unknown op '" + req.op +
                              "' (hello, submit, results, status, "
                              "cancel, health, capabilities, sync, "
                              "shutdown)") +
                "\n";
}

int
Server::run()
{
    std::vector<std::unique_ptr<Conn>> conns;
    bool drainDeadlineArmed = false;
    bool drainCancelIssued = false;
    Clock::time_point drainDeadline;

    auto dropConn = [&](Conn &conn) {
        if (conn.sub && !conn.dropped) {
            std::lock_guard<std::mutex> lock(_state->mu);
            conn.sub->subscribers--;
        }
        conn.sub.reset();
        if (conn.fd >= 0)
            ::close(conn.fd);
        conn.fd = -1;
    };

    for (;;) {
        if ((_opts.interrupted && _opts.interrupted->load()) ||
            _shutdownRequested.load())
            startDrain();

        bool draining, idle;
        {
            std::lock_guard<std::mutex> lock(_state->mu);
            draining = _state->draining;
            idle = _state->pending.empty() && !_state->running;
        }
        if (draining) {
            if (!drainDeadlineArmed) {
                drainDeadlineArmed = true;
                drainDeadline =
                    Clock::now() +
                    std::chrono::microseconds(long(
                        std::max(_opts.drainTimeoutSeconds, 0.0) *
                        1e6));
            }
            if (!drainCancelIssued &&
                Clock::now() >= drainDeadline) {
                // Deadline: cancel everything still queued/running;
                // settled cells are already journaled, so nothing a
                // resume cannot recover is lost.
                drainCancelIssued = true;
                std::lock_guard<std::mutex> lock(_state->mu);
                for (auto &kv : _state->jobs)
                    kv.second->cancel.store(true);
                for (auto &j : _state->pending)
                    j->cancel.store(true);
            }
            bool flushed = true;
            for (auto &c : conns)
                if (c->fd >= 0 && !c->out.empty() && !c->dropped)
                    flushed = false;
            if (idle && flushed)
                break;
        }

        std::vector<pollfd> fds;
        fds.push_back({_listenFd, POLLIN, 0});
        fds.push_back({_wakeFd[0], POLLIN, 0});
        for (auto &c : conns) {
            short events = POLLIN;
            if (!c->out.empty() && !c->dropped)
                events |= POLLOUT;
            fds.push_back({c->fd, events, 0});
        }

        int rc = ::poll(fds.data(), nfds_t(fds.size()), 50);
        if (rc < 0 && errno != EINTR)
            return 1;

        if (fds[1].revents & POLLIN) {
            char buf[256];
            while (::read(_wakeFd[0], buf, sizeof(buf)) > 0) {
            }
        }

        // New result lines / finished jobs → every subscriber.
        for (auto &c : conns)
            if (c->fd >= 0)
                flushConn(*c);

        // Connections accepted below are not in this iteration's
        // pollfd set; only the first nPolled were polled.
        const std::size_t nPolled = conns.size();

        if (fds[0].revents & POLLIN) {
            for (;;) {
                int fd = ::accept(_listenFd, nullptr, nullptr);
                if (fd < 0)
                    break;
                setNonBlocking(fd);
                bool drainingNow;
                {
                    std::lock_guard<std::mutex> lock(_state->mu);
                    drainingNow = _state->draining;
                }
                if (drainingNow) {
                    writeAll(fd, drainingLine() + "\n");
                    ::close(fd);
                    continue;
                }
                if (conns.size() >= _opts.maxClients) {
                    {
                        std::lock_guard<std::mutex> lock(_state->mu);
                        _state->stats.busyRejections++;
                    }
                    writeAll(fd,
                             errorLine("busy",
                                       "client limit reached; retry "
                                       "with backoff") +
                                 "\n");
                    ::close(fd);
                    continue;
                }
                auto conn = std::make_unique<Conn>();
                conn->fd = fd;
                conns.push_back(std::move(conn));
                _clients = conns.size();
            }
        }

        for (std::size_t i = 0; i < nPolled; i++) {
            Conn &conn = *conns[i];
            short revents = fds[2 + i].revents;
            if (conn.fd < 0)
                continue;
            if (revents & (POLLERR | POLLHUP | POLLNVAL)) {
                dropConn(conn);
                continue;
            }
            if ((revents & POLLIN) && !conn.closing) {
                char buf[4096];
                for (;;) {
                    ssize_t n = ::read(conn.fd, buf, sizeof(buf));
                    if (n > 0) {
                        conn.in.append(buf, std::size_t(n));
                        const std::size_t cap =
                            conn.syncRemaining ? kMaxSyncLineBytes
                                               : kMaxLineBytes;
                        if (conn.in.size() > cap &&
                            conn.in.find('\n') ==
                                std::string::npos) {
                            conn.out +=
                                errorLine("bad_request",
                                          "request line exceeds "
                                          "the per-line byte cap") +
                                "\n";
                            conn.closing = true;
                            conn.in.clear();
                            break;
                        }
                        continue;
                    }
                    if (n == 0) {
                        conn.closing = true;   // peer sent EOF
                        break;
                    }
                    if (errno == EAGAIN || errno == EWOULDBLOCK ||
                        errno == EINTR)
                        break;
                    dropConn(conn);
                    break;
                }
                if (conn.fd < 0)
                    continue;
                std::size_t pos;
                while ((pos = conn.in.find('\n')) !=
                       std::string::npos) {
                    std::string line = conn.in.substr(0, pos);
                    conn.in.erase(0, pos + 1);
                    if (!line.empty() && line.back() == '\r')
                        line.pop_back();
                    if (line.empty())
                        continue;
                    // A request that throws costs its own reply,
                    // never the daemon.
                    try {
                        handleLine(conn, line);
                    } catch (const std::exception &e) {
                        conn.out +=
                            errorLine("internal", e.what()) + "\n";
                    }
                }
            }
            if ((revents & POLLOUT) || !conn.out.empty()) {
                while (!conn.out.empty()) {
                    ssize_t n = ::write(conn.fd, conn.out.data(),
                                        conn.out.size());
                    if (n > 0) {
                        conn.out.erase(0, std::size_t(n));
                        continue;
                    }
                    if (n < 0 && (errno == EAGAIN ||
                                  errno == EWOULDBLOCK ||
                                  errno == EINTR))
                        break;
                    dropConn(conn);
                    break;
                }
            }
            if (conn.fd >= 0 && conn.dropped)
                dropConn(conn);
            if (conn.fd >= 0 && conn.closing && conn.out.empty() &&
                !conn.sub)
                dropConn(conn);
        }

        conns.erase(std::remove_if(conns.begin(), conns.end(),
                                   [](const std::unique_ptr<Conn> &c) {
                                       return c->fd < 0;
                                   }),
                    conns.end());
        _clients = conns.size();
    }

    // Drained: best-effort flush of whatever is still buffered, then
    // tear down.
    for (auto &c : conns) {
        if (c->fd >= 0 && !c->out.empty() && !c->dropped)
            writeAll(c->fd, c->out);
        dropConn(*c);
    }
    return 0;
}

} // namespace serve
} // namespace simalpha
