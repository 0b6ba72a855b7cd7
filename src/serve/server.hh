/**
 * @file
 * `simalpha serve` — a long-running, crash-tolerant campaign service.
 *
 * One daemon owns a persistent result store and accepts campaign
 * submissions over a Unix-domain socket (or TCP), multiplexing them
 * onto the in-process ExperimentRunner pool or the process-isolation
 * supervisor. Every job runs with resume semantics against its own
 * append-only journal under <store>/serve.d/, which makes the four
 * interesting cases one code path:
 *
 *   cold submit      journal empty, every cell computes, lines stream
 *                    in spec order as they settle;
 *   warm submit      cells already in the store are served from disk
 *                    (byte-identical), streaming near-instantly;
 *   crashed daemon   restart + resubmit replays the job journal and
 *                    computes only the remainder — the client's
 *                    collected stream is byte-identical to an
 *                    uninterrupted run;
 *   repeat submit    a submission matching an in-flight job attaches
 *                    to it (single computation, every subscriber gets
 *                    every line); one matching a finished job replays
 *                    from memory or journal.
 *
 * Robustness posture, in order of the failure matrix in DESIGN.md:
 *
 *   overload         the submission queue is bounded; a full queue is
 *                    an explicit `busy` reply, never a silent hang,
 *                    and per-campaign / per-client cell budgets bound
 *                    the work any one client can enqueue;
 *   client died      a dead or unreadably-slow subscriber is dropped
 *                    (bounded per-connection output buffer); the
 *                    campaign keeps running and journaling;
 *   worker died      under --isolate=process the supervisor respawns
 *                    shards with jittered backoff; under threads a
 *                    cell failure is a contained failed result — the
 *                    daemon itself never goes down with a job;
 *   store degraded   an unopenable store degrades to compute-without-
 *                    cache, reported in health, never an outage;
 *   daemon killed    every settled cell is already journaled (opt-in
 *                    fsync per line); SIGTERM drains with a deadline.
 *
 * Threading: one poll(2) I/O thread (the caller of run()) owns every
 * socket; one executor thread owns the runner. They share a single
 * mutex-guarded state block and wake each other through a self-pipe —
 * no lock is ever held across a blocking syscall or a cell execution.
 */

#ifndef SIMALPHA_SERVE_SERVER_HH
#define SIMALPHA_SERVE_SERVER_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "checkpoint/checkpoint.hh"
#include "runner/campaign.hh"
#include "serve/proto.hh"

namespace simalpha {

namespace store {
class ResultStore;
}

namespace serve {

/**
 * One accepted job handed to a custom executor: everything the
 * built-in runner would have used — submitted identity, derived spec,
 * journal path, cancel flag — plus the sink every settled cell's
 * verbatim journal line goes through. The fleet dispatcher is the
 * intended customer: it receives exactly the job Server::runJob would
 * have run locally and executes it across workers instead, inheriting
 * the server's admission control, idempotent attach/replay,
 * streaming, and drain behaviour unchanged.
 */
struct JobWork
{
    std::string campaign;          ///< as submitted (job identity)
    /** Derived spec with cap/sampling applied; valid for the call. */
    const runner::CampaignSpec *spec = nullptr;
    std::uint64_t maxInsts = 0;    ///< as submitted (job identity)
    checkpoint::SampleSpec sample; ///< as submitted (job identity)
    std::string journalPath;       ///< append-only job journal (resume)
    std::string storePath;
    const std::atomic<bool> *cancel = nullptr;
    /** Settled-cell sink: verbatim journal-line bytes, whether the
     *  cell succeeded, and whether it was served (journal/store/warm
     *  worker) rather than computed. */
    std::function<void(const std::string &line, bool ok, bool served)>
        emit;
};

/** Runs one job to completion; throwing marks the job failed. */
using JobExecutor = std::function<void(const JobWork &)>;

struct ServeOptions
{
    /** Persistent result store root (required): results, checkpoints,
     *  and the service's own job journals (<store>/serve.d/) live
     *  here. Created if missing. */
    std::string storePath;

    /** "tcp:PORT" (127.0.0.1) or "tcp:HOST:PORT" (bind HOST, e.g.
     *  0.0.0.0 for all interfaces) for TCP, anything else a
     *  Unix-socket path; empty = <store>/serve.sock. */
    std::string listen;

    /** Runner threads per job (thread isolation); 0 = all cores. */
    int jobs = 0;
    /** "thread" (default) or "process". */
    std::string isolate = "thread";
    /** Worker processes for process isolation; 0 = all cores. */
    int shards = 0;
    /** simalpha binary to exec as shard workers (process mode). */
    std::string workerBinary;

    /** Admission control: jobs queued behind the running one before
     *  submissions bounce with `busy`. */
    std::size_t maxPending = 4;
    /** Concurrent client connections before accepts bounce. */
    std::size_t maxClients = 32;
    /** Largest campaign (in cells) a single submit may enqueue;
     *  0 = unlimited. Exceeding it is a `budget` reply. */
    std::size_t maxCellsPerCampaign = 0;
    /** Total cells one connection may submit over its lifetime;
     *  0 = unlimited. */
    std::size_t maxClientCells = 0;

    /** Seconds a drain (SIGTERM/shutdown) waits for the in-flight job
     *  before cancelling it and exiting anyway. */
    double drainTimeoutSeconds = 10.0;

    /** fsync job journals per line (see runner/journal.hh). */
    bool journalSync = false;

    /** Set by a signal handler: begin drain-then-exit. */
    const std::atomic<bool> *interrupted = nullptr;

    /** Test hook: while set, the executor picks up no job, so tests
     *  can fill the pending queue deterministically. */
    const std::atomic<bool> *testHoldExecutor = nullptr;

    /** When set, accepted jobs run through this instead of the
     *  built-in runner/supervisor — the hook the fleet dispatcher
     *  plugs into. */
    JobExecutor executor;
};

/** Cumulative daemon statistics (health replies and tests). */
struct ServeStats
{
    std::uint64_t submits = 0;
    std::uint64_t attaches = 0;       ///< submits joining a live job
    std::uint64_t busyRejections = 0;
    std::uint64_t budgetRejections = 0;
    std::uint64_t badRequests = 0;
    std::uint64_t jobsDone = 0;
    std::uint64_t cellsComputed = 0;
    std::uint64_t cellsServed = 0;    ///< journal/cache/store hits
    std::uint64_t clientsDropped = 0; ///< slow/dead subscribers cut
};

class Server
{
  public:
    explicit Server(ServeOptions options);
    ~Server();
    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Bind and listen (creating <store> and <store>/serve.d). False
     *  with *error filled on any setup failure. */
    bool start(std::string *error);

    /** Serve until drained (shutdown request, interrupt flag, or
     *  requestShutdown()). Returns the process exit code: 0 clean
     *  drain, 1 the I/O loop failed. Call after start(). */
    int run();

    /** Thread-safe: begin drain-then-exit (as if SIGTERMed). */
    void requestShutdown();

    /** Bound address: the Unix socket path, "tcp:PORT" (loopback), or
     *  "tcp:HOST:PORT" when --listen named a host. */
    const std::string &boundAddress() const { return _boundAddress; }

    ServeStats stats() const;

  private:
    struct Job;
    struct Conn;
    struct State;

    void executorLoop();
    void runJob(const std::shared_ptr<Job> &job);
    void wake();
    void handleLine(Conn &conn, const std::string &line);
    void handleSubmit(Conn &conn, const Request &req, bool allowRun);
    /** The most cells a request may have the daemon build: the
     *  per-campaign cap and the client's budget, what is left of it
     *  for a submission and all of it for a status query (no client
     *  could submit more). No limit when neither is set. */
    std::uint64_t cellCap(const Conn &conn, bool submission) const;
    /** Reply `budget` and return true when @p cells exceed
     *  cellCap(). */
    bool rejectOverBudget(Conn &conn, std::uint64_t cells,
                          bool submission);
    void handleSync(Conn &conn, const Request &req);
    void handleSyncEntry(Conn &conn, const std::string &line);
    bool ensureSyncStore(std::string *error);
    void flushConn(Conn &conn);
    void evictDoneJobsLocked();
    void startDrain();

    ServeOptions _opts;
    std::string _boundAddress;
    std::chrono::steady_clock::time_point _startTime{};
    /** Store handle of the poll thread, for sync ops (runner jobs
     *  open their own handles; the store is multi-handle-safe). */
    std::unique_ptr<store::ResultStore> _syncStore;
    std::size_t _clients = 0;   ///< poll-thread-owned, for health
    int _listenFd = -1;
    int _wakeFd[2] = {-1, -1};
    std::atomic<bool> _shutdownRequested{false};

    std::unique_ptr<State> _state;
    std::thread _executor;
};

/** Identity of a submission: (campaign, cap, sampling) → the job key
 *  and its 16-hex id (store::ResultStore::keyHash of the key). The
 *  job journal is <store>/serve.d/job-<id>.journal.jsonl. */
std::string jobKey(const std::string &campaign, std::uint64_t maxInsts,
                   const checkpoint::SampleSpec &sample);
std::string jobIdFromKey(const std::string &key);
std::string jobJournalPath(const std::string &storePath,
                           const std::string &jobId);

} // namespace serve
} // namespace simalpha

#endif // SIMALPHA_SERVE_SERVER_HH
