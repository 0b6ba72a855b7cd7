/**
 * @file
 * The fleet dispatcher's worker registry: the configured `--workers`
 * list, each worker's liveness and dispatch accounting, and the
 * health-probe that decides both.
 *
 * A worker is a plain `simalpha serve` daemon named by its address
 * (Unix-socket path or tcp:[HOST:]PORT). The registry never spawns or
 * supervises them — operators own the daemons; the registry only
 * probes (op "health"), marks dead workers out of rotation when a
 * dispatch fails terminally, and lets a later probe bring a restarted
 * worker back. All methods are thread-safe: shard dispatch threads
 * update accounting concurrently.
 */

#ifndef SIMALPHA_FLEET_REGISTRY_HH
#define SIMALPHA_FLEET_REGISTRY_HH

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "serve/client.hh"

namespace simalpha {
namespace fleet {

/** One worker daemon, as configured. */
struct WorkerConfig
{
    std::string address;  ///< Unix-socket path or tcp:[HOST:]PORT
};

/** Parse a comma-separated `--workers` list. False with *error
 *  filled on an empty list or empty element. */
bool parseWorkerList(const std::string &text,
                     std::vector<WorkerConfig> *out,
                     std::string *error);

/** Snapshot of one worker's state and dispatch accounting. */
struct WorkerStatus
{
    std::string address;
    bool alive = false;
    std::uint64_t pid = 0;           ///< from the last health probe
    std::string storePath;           ///< from the last health probe
    std::uint64_t cellsComputed = 0; ///< worker-reported, last probe
    std::uint64_t shardsDispatched = 0;
    std::uint64_t shardsCompleted = 0;
    std::uint64_t shardsFailed = 0;
    std::uint64_t linesStreamed = 0;
    std::string lastError;
};

class WorkerRegistry
{
  public:
    WorkerRegistry(std::vector<WorkerConfig> workers,
                   double timeoutSeconds, double connectTimeoutSeconds,
                   std::uint64_t seed);

    std::size_t size() const;

    /** Client options for worker @p index (timeouts and a per-worker
     *  jitter seed applied; no retries — callers choose). */
    serve::ClientOptions clientFor(std::size_t index) const;

    /** Health-probe worker @p index: marks it alive (recording pid,
     *  store root, cells_computed) or dead with the probe error. */
    bool probe(std::size_t index);

    /** Probe every worker; returns how many are alive. */
    std::size_t probeAll();

    /** Indexes of live workers, in configured order. */
    std::vector<std::size_t> liveWorkers() const;

    void markDead(std::size_t index, const std::string &error);

    /** Account one finished shard dispatch: the lines it streamed,
     *  and its error (empty = completed). */
    void noteDispatch(std::size_t index, std::uint64_t lines,
                      const std::string &error);

    std::vector<WorkerStatus> snapshot() const;

  private:
    mutable std::mutex _mu;
    std::vector<WorkerStatus> _workers;
    double _timeoutSeconds;
    double _connectTimeoutSeconds;
    std::uint64_t _seed;
};

} // namespace fleet
} // namespace simalpha

#endif // SIMALPHA_FLEET_REGISTRY_HH
