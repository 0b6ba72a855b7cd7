#include "trace.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <unordered_map>

namespace cbench {

namespace {

const auto kEpoch = std::chrono::steady_clock::now();

struct State
{
    std::atomic<bool> on{false};
    std::atomic<int> pass{-1};

    std::mutex mu;      // guards everything below
    std::vector<Span> spans;
    std::unordered_map<std::string, int> cells;
    std::map<std::string, int> storeLanes;
    std::map<std::string, int> addressLanes;
    std::string front;
    std::map<int, int> openShards;
    int openFront = -1;
    std::map<int, SimCounts> sim;
    std::map<int, simalpha::store::StoreCounters> stores;
};

State &
state()
{
    static State s;
    return s;
}

thread_local std::vector<int> tlStack;
thread_local int tlCell = -1;
thread_local int tlLane = -1;

} // namespace

std::string
cellIdentity(const simalpha::runner::Cell &c)
{
    return c.machine + "|" + simalpha::validate::optimizationName(c.opt) +
           "|" + c.workload + "|" + std::to_string(c.maxInsts) + "|" +
           simalpha::checkpoint::formatSampleSpec(c.sample);
}

double
now()
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         kEpoch)
        .count();
}

const char *
layerName(Layer layer)
{
    static const char *const names[kNumLayers] = {
        "workloads", "validate", "core",   "outorder", "isa",
        "checkpoint", "store",   "runner", "serve",    "fleet"};
    return names[layer];
}

void
SimCounts::add(const SimCounts &o)
{
    alphaInsts += o.alphaInsts;
    l1iMisses += o.l1iMisses;
    l1dMisses += o.l1dMisses;
    l2Misses += o.l2Misses;
    dtlbMisses += o.dtlbMisses;
    dramRowHits += o.dramRowHits;
    dramRowMisses += o.dramRowMisses;
    directionMispredicts += o.directionMispredicts;
    wayMispredicts += o.wayMispredicts;
    replayTraps += o.replayTraps;
    mapStalls += o.mapStalls;
    ruuInsts += o.ruuInsts;
}

std::vector<std::pair<std::string, std::uint64_t>>
SimCounts::fields() const
{
    return {{"alpha_insts", alphaInsts},
            {"l1i_misses", l1iMisses},
            {"l1d_misses", l1dMisses},
            {"l2_misses", l2Misses},
            {"dtlb_misses", dtlbMisses},
            {"dram_row_hits", dramRowHits},
            {"dram_row_misses", dramRowMisses},
            {"direction_mispredicts", directionMispredicts},
            {"way_mispredicts", wayMispredicts},
            {"replay_traps", replayTraps},
            {"map_stalls", mapStalls},
            {"ruu_insts", ruuInsts}};
}

void
Trace::begin(int pass)
{
    state().pass.store(pass);
    state().on.store(true);
}

void
Trace::end()
{
    state().on.store(false);
}

void
Trace::clear()
{
    State &s = state();
    std::lock_guard<std::mutex> lock(s.mu);
    s.spans.clear();
    s.sim.clear();
    s.stores.clear();
    s.openShards.clear();
    s.openFront = -1;
}

bool
Trace::on()
{
    return state().on.load(std::memory_order_relaxed);
}

void
Trace::setCells(const simalpha::runner::CampaignSpec &canonical)
{
    State &s = state();
    std::lock_guard<std::mutex> lock(s.mu);
    s.cells.clear();
    for (std::size_t i = 0; i < canonical.cells.size(); i++)
        s.cells.emplace(cellIdentity(canonical.cells[i]), int(i));
}

void
Trace::setLanes(const std::vector<std::string> &storeRoots,
                const std::vector<std::string> &addresses,
                const std::string &front)
{
    State &s = state();
    std::lock_guard<std::mutex> lock(s.mu);
    s.storeLanes.clear();
    s.addressLanes.clear();
    for (std::size_t i = 0; i < storeRoots.size(); i++)
        s.storeLanes[storeRoots[i]] = int(i);
    for (std::size_t i = 0; i < addresses.size(); i++)
        s.addressLanes[addresses[i]] = int(i);
    s.front = front;
}

int
Trace::open(const char *name, Layer layer, int parent)
{
    Span span;
    span.name = name;
    span.layer = layer;
    span.parent = parent >= 0 ? parent
                              : (tlStack.empty() ? -1 : tlStack.back());
    span.cell = tlCell;
    span.lane = tlLane;
    span.thread = std::this_thread::get_id();
    State &s = state();
    int id;
    {
        std::lock_guard<std::mutex> lock(s.mu);
        span.pass = s.pass.load();
        id = int(s.spans.size());
        s.spans.push_back(span);
    }
    tlStack.push_back(id);
    // Stamp the start last, so the bookkeeping above is not inside it.
    double t = now();
    std::lock_guard<std::mutex> lock(s.mu);
    s.spans[std::size_t(id)].start = t;
    return id;
}

void
Trace::close(int span, std::uint64_t work)
{
    double t = now();
    if (!tlStack.empty() && tlStack.back() == span)
        tlStack.pop_back();
    State &s = state();
    std::lock_guard<std::mutex> lock(s.mu);
    Span &sp = s.spans[std::size_t(span)];
    sp.end = t;
    sp.work = work;
}

void
Trace::noteCell(const simalpha::runner::Cell &cell)
{
    State &s = state();
    std::lock_guard<std::mutex> lock(s.mu);
    auto it = s.cells.find(cellIdentity(cell));
    tlCell = it == s.cells.end() ? -1 : it->second;
}

void
Trace::clearCell()
{
    tlCell = -1;
}

int
Trace::laneOfStore(const std::string &root)
{
    State &s = state();
    std::lock_guard<std::mutex> lock(s.mu);
    auto it = s.storeLanes.find(root);
    return it == s.storeLanes.end() ? -1 : it->second;
}

int
Trace::laneOfAddress(const std::string &address)
{
    State &s = state();
    std::lock_guard<std::mutex> lock(s.mu);
    auto it = s.addressLanes.find(address);
    return it == s.addressLanes.end() ? -1 : it->second;
}

bool
Trace::isFront(const std::string &address)
{
    State &s = state();
    std::lock_guard<std::mutex> lock(s.mu);
    return !s.front.empty() && address == s.front;
}

int
Trace::threadLane()
{
    return tlLane;
}

void
Trace::setThreadLane(int lane)
{
    tlLane = lane;
}

int
Trace::openShard(int lane)
{
    State &s = state();
    std::lock_guard<std::mutex> lock(s.mu);
    auto it = s.openShards.find(lane);
    return it == s.openShards.end() ? -1 : it->second;
}

void
Trace::setOpenShard(int lane, int span)
{
    State &s = state();
    std::lock_guard<std::mutex> lock(s.mu);
    s.openShards[lane] = span;
}

int
Trace::openFront()
{
    State &s = state();
    std::lock_guard<std::mutex> lock(s.mu);
    return s.openFront;
}

void
Trace::setOpenFront(int span)
{
    State &s = state();
    std::lock_guard<std::mutex> lock(s.mu);
    s.openFront = span;
}

void
Trace::addSimCounts(const SimCounts &c)
{
    State &s = state();
    std::lock_guard<std::mutex> lock(s.mu);
    s.sim[s.pass.load()].add(c);
}

void
Trace::addStoreCounters(const simalpha::store::StoreCounters &c)
{
    State &s = state();
    std::lock_guard<std::mutex> lock(s.mu);
    simalpha::store::StoreCounters &t = s.stores[s.pass.load()];
    t.hits += c.hits;
    t.misses += c.misses;
    t.publishes += c.publishes;
    t.bytesRead += c.bytesRead;
    t.bytesWritten += c.bytesWritten;
    t.quarantined += c.quarantined;
    t.indexHits += c.indexHits;
    t.indexStale += c.indexStale;
    t.entryParses += c.entryParses;
}

std::vector<Span>
Trace::spans()
{
    State &s = state();
    std::lock_guard<std::mutex> lock(s.mu);
    return s.spans;
}

SimCounts
Trace::simCounts(int pass)
{
    State &s = state();
    std::lock_guard<std::mutex> lock(s.mu);
    auto it = s.sim.find(pass);
    return it == s.sim.end() ? SimCounts{} : it->second;
}

simalpha::store::StoreCounters
Trace::storeCounters(int pass)
{
    State &s = state();
    std::lock_guard<std::mutex> lock(s.mu);
    auto it = s.stores.find(pass);
    return it == s.stores.end() ? simalpha::store::StoreCounters{}
                                : it->second;
}

namespace {

std::vector<std::vector<int>>
childLists(const std::vector<Span> &spans)
{
    std::vector<std::vector<int>> children(spans.size());
    for (std::size_t i = 0; i < spans.size(); i++)
        if (spans[i].parent >= 0)
            children[std::size_t(spans[i].parent)].push_back(int(i));
    return children;
}

} // namespace

std::vector<double>
selfTimes(const std::vector<Span> &spans)
{
    const std::vector<std::vector<int>> children = childLists(spans);
    std::vector<double> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); i++) {
        const Span &p = spans[i];
        std::vector<std::pair<double, double>> iv;
        for (int c : children[i])
            iv.emplace_back(std::max(spans[std::size_t(c)].start, p.start),
                            std::min(spans[std::size_t(c)].end, p.end));
        std::sort(iv.begin(), iv.end());
        double covered = 0.0, from = p.start;
        for (const auto &[a, b] : iv) {
            double lo = std::max(a, from);
            if (b > lo) {
                covered += b - lo;
                from = b;
            }
        }
        self[i] = p.duration() - covered;
    }
    return self;
}

double
accountedTime(const std::vector<Span> &spans,
              const std::vector<double> &self, int root)
{
    const std::vector<std::vector<int>> children = childLists(spans);
    auto walk = [&](auto &&walk, int span) -> double {
        std::map<std::thread::id, double> byThread;
        for (int c : children[std::size_t(span)])
            byThread[spans[std::size_t(c)].thread] += walk(walk, c);
        double longest = 0.0;
        for (const auto &kv : byThread)
            longest = std::max(longest, kv.second);
        return self[std::size_t(span)] + longest;
    };
    return walk(walk, root);
}

} // namespace cbench
