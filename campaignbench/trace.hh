/**
 * @file
 * In-memory span recorder for the campaign benchmark.
 *
 * Spans are opened and closed by the link-time wrappers in wrap.cc
 * around calls into each layer's public functions; nothing inside the
 * simulator's libraries knows about them. A span records its name,
 * layer, start and end, the span that caused it, the campaign cell it
 * worked for, the fleet worker (lane) it ran on, and the benchmark pass.
 * A span's parent is the innermost open span on the same thread, or an
 * explicitly named span on another thread (a fleet shard submit is the
 * parent of the worker's runner span). Self time is a span's duration
 * minus the union of its children's intervals.
 *
 * Recording is off unless a traced pass is running, so the wrappers cost
 * one relaxed atomic load per call in untraced passes.
 */

#ifndef CAMPAIGNBENCH_TRACE_HH
#define CAMPAIGNBENCH_TRACE_HH

#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "runner/campaign.hh"
#include "store/store.hh"

namespace cbench {

/** Seconds on the steady clock since process start. */
double now();

/** A cell's seed-free identity: machine, optimization, workload, cap,
 *  and sampling spec. */
std::string cellIdentity(const simalpha::runner::Cell &cell);

/** The simulator's modules that own spans, in report order. memory and
 *  predictors run inside core/outorder spans: they are reported as
 *  modelled-component counts (SimCounts), not host time. */
enum Layer
{
    kWorkloads,
    kValidate,
    kCore,
    kOutorder,
    kIsa,
    kCheckpoint,
    kStore,
    kRunner,
    kServe,
    kFleet,
    kNumLayers
};

const char *layerName(Layer layer);

struct Span
{
    const char *name = "";      ///< "<layer>.<operation>"
    Layer layer = kRunner;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;            ///< span index, -1 for a root
    int cell = -1;              ///< canonical campaign cell index
    int lane = -1;              ///< fleet worker, -1 in-process
    int pass = -1;
    std::thread::id thread;
    /** Operation size: committed insts, payload bytes, or 1 for a
     *  store hit — whatever the span's name defines. */
    std::uint64_t work = 0;

    double duration() const { return end - start; }
};

/** Modelled-component counters read after every traced run/runWindow
 *  (simulated events, not host time). The memory, predictor, and core
 *  fields come from AlphaCore machines only: RuuCore exposes no memory
 *  system, so its runs contribute only ruuInsts. */
struct SimCounts
{
    std::uint64_t alphaInsts = 0;
    std::uint64_t l1iMisses = 0;
    std::uint64_t l1dMisses = 0;
    std::uint64_t l2Misses = 0;
    std::uint64_t dtlbMisses = 0;
    std::uint64_t dramRowHits = 0;
    std::uint64_t dramRowMisses = 0;
    std::uint64_t directionMispredicts = 0;
    std::uint64_t wayMispredicts = 0;
    std::uint64_t replayTraps = 0;
    std::uint64_t mapStalls = 0;
    std::uint64_t ruuInsts = 0;

    void add(const SimCounts &o);
    /** Named fields, in a fixed order (the reference file's keys). */
    std::vector<std::pair<std::string, std::uint64_t>> fields() const;
};

/** Global recorder. Thread-safe; every method is static. */
class Trace
{
  public:
    /** Start recording spans of @p pass (clears nothing). */
    static void begin(int pass);
    /** Stop recording. */
    static void end();
    static bool on();
    /** Drop every recorded span and count. */
    static void clear();

    /** Map each cell identity of @p canonical to its spec index, so
     *  spans can name the cell they worked for whatever order or seed
     *  the run used. */
    static void setCells(const simalpha::runner::CampaignSpec &canonical);
    /** Fleet lanes: a worker's store root and its socket address both
     *  name lane @p lane; @p front names the front-end socket. */
    static void setLanes(const std::vector<std::string> &storeRoots,
                         const std::vector<std::string> &addresses,
                         const std::string &front);

    /** Open a span on this thread. @p parent < 0 means the innermost
     *  open span of this thread. Returns the span index. */
    static int open(const char *name, Layer layer, int parent = -1);
    static void close(int span, std::uint64_t work = 0);

    /** Note the cell this thread is working for (cellSeed wrapper). */
    static void noteCell(const simalpha::runner::Cell &cell);
    static void clearCell();
    /** Lane of a store root / socket address; -1 if unregistered. */
    static int laneOfStore(const std::string &root);
    static int laneOfAddress(const std::string &address);
    static bool isFront(const std::string &address);
    /** This thread's lane (set while a worker runner span is open). */
    static int threadLane();
    static void setThreadLane(int lane);
    /** The open span standing for fleet shard @p lane / the front
     *  submit, -1 when none is open. */
    static int openShard(int lane);
    static void setOpenShard(int lane, int span);
    static int openFront();
    static void setOpenFront(int span);

    static void addSimCounts(const SimCounts &c);
    static void addStoreCounters(const simalpha::store::StoreCounters &c);

    static std::vector<Span> spans();
    static SimCounts simCounts(int pass);
    static simalpha::store::StoreCounters storeCounters(int pass);
};

/** RAII span on the current thread; a no-op while recording is off. */
class Scope
{
  public:
    Scope(const char *name, Layer layer, int parent = -1)
        : _span(Trace::on() ? Trace::open(name, layer, parent) : -1)
    {
    }
    ~Scope()
    {
        if (_span >= 0)
            Trace::close(_span, _work);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    void work(std::uint64_t w) { _work = w; }
    int id() const { return _span; }

  private:
    int _span;
    std::uint64_t _work = 0;
};

/** Self time of every span: duration minus the union of its children's
 *  intervals (children may run concurrently on other threads). */
std::vector<double> selfTimes(const std::vector<Span> &spans);

/**
 * Wall time the spans of one pass account for along the critical path
 * from @p root: a span's self time plus, over its children grouped by
 * thread, the largest group total. Equals the root's duration when
 * every gap is covered by some span; in-process passes account exactly.
 */
double accountedTime(const std::vector<Span> &spans,
                     const std::vector<double> &self, int root);

} // namespace cbench

#endif // CAMPAIGNBENCH_TRACE_HH
