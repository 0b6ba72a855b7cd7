#include "fleet/registry.hh"

#include "serve/proto.hh"

namespace simalpha {
namespace fleet {

bool
parseWorkerList(const std::string &text,
                std::vector<WorkerConfig> *out, std::string *error)
{
    out->clear();
    std::size_t pos = 0;
    while (pos <= text.size()) {
        std::size_t end = text.find(',', pos);
        if (end == std::string::npos)
            end = text.size();
        std::string item = text.substr(pos, end - pos);
        if (item.empty()) {
            if (error)
                *error = "empty worker address in '" + text + "'";
            return false;
        }
        out->push_back(WorkerConfig{item});
        pos = end + 1;
        if (end == text.size())
            break;
    }
    if (out->empty()) {
        if (error)
            *error = "empty worker list";
        return false;
    }
    return true;
}

WorkerRegistry::WorkerRegistry(std::vector<WorkerConfig> workers,
                               double timeoutSeconds,
                               double connectTimeoutSeconds,
                               std::uint64_t seed)
    : _timeoutSeconds(timeoutSeconds),
      _connectTimeoutSeconds(connectTimeoutSeconds), _seed(seed)
{
    _workers.reserve(workers.size());
    for (const WorkerConfig &w : workers) {
        WorkerStatus s;
        s.address = w.address;
        _workers.push_back(std::move(s));
    }
}

std::size_t
WorkerRegistry::size() const
{
    return _workers.size();
}

serve::ClientOptions
WorkerRegistry::clientFor(std::size_t index) const
{
    serve::ClientOptions opts;
    opts.connect = _workers[index].address;
    opts.timeoutSeconds = _timeoutSeconds;
    opts.connectTimeoutSeconds = _connectTimeoutSeconds;
    opts.maxRetries = 0;
    // Distinct per-worker jitter seeds so retry schedules against
    // different workers never align (same construction as the shard
    // supervisor's per-shard seeds).
    opts.seed = _seed * 0x9E3779B97F4A7C15ULL + index + 1;
    return opts;
}

bool
WorkerRegistry::probe(std::size_t index)
{
    serve::ClientOptions opts = clientFor(index);
    if (opts.timeoutSeconds <= 0.0)
        opts.timeoutSeconds = 10.0;     // probes must terminate
    std::string reply, error;
    if (!serve::requestOnce(opts, "{\"op\":\"health\"}", &reply,
                            &error)) {
        markDead(index, error);
        return false;
    }
    std::map<std::string, std::string> strings;
    std::map<std::string, std::uint64_t> numbers;
    if (!serve::parseServeLine(reply, &strings, &numbers) ||
        strings["event"] != "health") {
        markDead(index, "unexpected health reply: " + reply);
        return false;
    }
    std::lock_guard<std::mutex> lock(_mu);
    WorkerStatus &w = _workers[index];
    w.alive = true;
    w.pid = numbers["pid"];
    w.storePath = strings["store_path"];
    w.cellsComputed = numbers["cells_computed"];
    w.lastError.clear();
    return true;
}

std::size_t
WorkerRegistry::probeAll()
{
    std::size_t live = 0;
    for (std::size_t i = 0; i < _workers.size(); i++)
        if (probe(i))
            live++;
    return live;
}

std::vector<std::size_t>
WorkerRegistry::liveWorkers() const
{
    std::lock_guard<std::mutex> lock(_mu);
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < _workers.size(); i++)
        if (_workers[i].alive)
            out.push_back(i);
    return out;
}

void
WorkerRegistry::markDead(std::size_t index, const std::string &error)
{
    std::lock_guard<std::mutex> lock(_mu);
    _workers[index].alive = false;
    _workers[index].lastError = error;
}

void
WorkerRegistry::noteDispatch(std::size_t index, std::uint64_t lines,
                             const std::string &error)
{
    std::lock_guard<std::mutex> lock(_mu);
    WorkerStatus &w = _workers[index];
    w.shardsDispatched++;
    w.linesStreamed += lines;
    if (error.empty()) {
        w.shardsCompleted++;
    } else {
        w.shardsFailed++;
        w.lastError = error;
    }
}

std::vector<WorkerStatus>
WorkerRegistry::snapshot() const
{
    std::lock_guard<std::mutex> lock(_mu);
    return _workers;
}

} // namespace fleet
} // namespace simalpha
