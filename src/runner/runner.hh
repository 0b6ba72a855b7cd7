/**
 * @file
 * ExperimentRunner: deterministic parallel execution of experiment
 * campaigns.
 *
 * Cells execute on a fixed-size std::thread pool, the calling thread
 * one of its workers, that takes them in spec order from one shared
 * cursor. Determinism comes from isolation, not scheduling: every cell
 * seeds its own RNG, settles into a slot indexed by spec order, and
 * shares nothing mutable with other cells. What cells do share is
 * immutable: one Program per workload per run (WorkloadTable), built
 * once and then only read, and one checkpoint set per sampled
 * workload — so a campaign at --jobs 8 is bit-identical to the same
 * campaign at --jobs 1. Machine
 * instances are reused within a worker (never across workers) through
 * a small per-worker pool: a machine resets every sub-unit to
 * freshly-constructed state at the start of each run, so a reused core
 * produces the same bytes as a rebuilt one without re-allocating the
 * caches, predictors, and register structures per cell.
 *
 * An in-memory cache keyed by (manifest hash, workload, instruction
 * cap, seed) skips redundant cells across runs of the same runner —
 * e.g. the 3 base sweeps sharing each Table-5 configuration. With
 * RunnerOptions::storePath set, the same key also addresses a
 * persistent on-disk result store (src/store/) shared by independent
 * runners, process shards, and successive campaign invocations; the
 * lookup order is journal replay → memory → store → compute, and
 * served results are byte-identical to computed ones.
 *
 * Cells are fault-contained: an exception thrown during cell execution
 * (invariant violation, watchdog deadlock, injected fault) becomes a
 * failed CellResult carrying its error class, and every other cell
 * completes bit-identically to a fault-free run at any --jobs. An
 * optional append-only JSONL journal makes campaigns resumable after a
 * crash or kill (see RunnerOptions::journalPath).
 *
 * The pool is the in-process transport of the one executor
 * (runner/sharded.hh; worker processes and fleet workers are the
 * other two): the executor replays the journal, and the cells the pool
 * settles leave for the journal and RunnerOptions::onCell in spec
 * order, so a journal or stream at any --jobs is byte-identical to
 * --jobs 1.
 */

#ifndef SIMALPHA_RUNNER_RUNNER_HH
#define SIMALPHA_RUNNER_RUNNER_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "isa/machine.hh"
#include "runner/campaign.hh"
#include "store/store.hh"

namespace simalpha {
namespace runner {

/** Outcome of one campaign cell. */
struct CellResult
{
    Cell cell;
    /** Seed the cell's RNG actually used (cellSeed(cell)). */
    std::uint64_t seed = 0;

    /** False if the cell could not run (unknown machine/workload) or
     *  its execution failed (invariant violation, deadlock, ...). */
    bool ok = false;
    std::string error;
    /** Error-taxonomy class ("config", "workload", "invariant",
     *  "deadlock", "transient", "internal"); empty when ok. */
    std::string errorClass;

    Cycle cycles = 0;
    std::uint64_t instsCommitted = 0;
    bool finished = false;
    /** Event counters snapshot from the machine's stat group. */
    std::map<std::string, std::uint64_t> counters;
    /** Identity of the exact configuration that produced the numbers. */
    std::string manifestHash;

    // ---- Sampled execution (all zero unless cell.sample.enabled()).
    // For a sampled cell, cycles/instsCommitted/counters above cover
    // only the measured windows; these fields carry the sampling
    // metadata and the per-window IPC statistics. ------------------
    /** Detailed windows actually measured. */
    std::uint64_t sampleWindows = 0;
    /** Functional (full-program) instruction count the windows
     *  represent — the denominator of the speedup claim. */
    std::uint64_t sampleTotalInsts = 0;
    /** Mean / stddev / 95%-CI half-width of the per-window IPCs. */
    double sampleIpcMean = 0.0;
    double sampleIpcStddev = 0.0;
    double sampleIpcCi = 0.0;

    // ---- Soft-error injection (empty unless cell.inject.enabled()).
    // A classified cell is ok=true even when the injected run crashed
    // or deadlocked — the classification itself succeeded, and the
    // outcome label carries what the flip did. --------------------
    /** inject::outcomeName() label: masked/sdc/crash/deadlock/timeout. */
    std::string injectOutcome;
    /** What the strike hit (core's injection note) plus any error. */
    std::string injectDetail;

    /** Served from the result cache (in-memory note; not serialized,
     *  so cached and computed campaigns stay byte-identical). */
    bool fromCache = false;

    /** Served from a resumed campaign journal (in-memory note, not
     *  serialized for the same reason as fromCache). */
    bool fromJournal = false;

    /** Served from the persistent result store (in-memory provenance
     *  note, not serialized — store hits must stay byte-identical to
     *  computed results in every artifact and journal). */
    bool fromStore = false;

    /** Executions this result took (1 + retries); in-memory note. */
    int attempts = 1;

    /** Whether the recorded failure class is retryable (in-memory). */
    bool retryable = false;

    double
    ipc() const
    {
        return cycles ? double(instsCommitted) / double(cycles) : 0.0;
    }

    double
    cpi() const
    {
        return instsCommitted
                   ? double(cycles) / double(instsCommitted)
                   : 0.0;
    }

    /** Bridge to the validate/ metrics helpers. */
    RunResult toRunResult() const;
};

/** All cell results of one campaign, in spec order. */
struct CampaignResult
{
    std::string campaign;
    std::vector<CellResult> cells;

    /** First cell matching (machine, workload[, opt]); null if none. */
    const CellResult *find(const std::string &machine,
                           const std::string &workload,
                           validate::Optimization opt =
                               validate::Optimization::None) const;

    std::size_t okCount() const;
    std::size_t errorCount() const;
};

/**
 * One deterministic fault injected into a campaign cell, for proving
 * containment: the chosen cell fails in a controlled way while every
 * other cell must stay byte-identical to a fault-free run.
 */
struct FaultInjection
{
    /** Index of the target cell in CampaignSpec::cells. */
    std::size_t cellIndex = 0;

    enum class Kind
    {
        Panic,      ///< a modeling bug: the real panic() path fires
        Stall,      ///< a core that stops committing: watchdog fires
        Throw,      ///< an environmental failure (retryable)

        // Real crash modes: these kill or wedge the *process*, so only
        // the process-isolation supervisor survives them. Injecting
        // them into the in-process (thread) runner takes the whole
        // campaign down — which is exactly what they exist to prove.
        Abort,      ///< std::abort(): SIGABRT, like a glibc heap error
        Segfault,   ///< raise(SIGSEGV), like a wild pointer
        Hang,       ///< an infinite loop outside any watchdog's sight
    };
    Kind kind = Kind::Throw;

    /** How many executions of the cell fault (retries count as
     *  executions); < 0 = every execution faults. */
    int times = -1;
};

struct RunnerOptions
{
    /** Worker threads; 0 = hardware concurrency, 1 = run serially in
     *  the calling thread. */
    int jobs = 1;
    /** Reuse results across cells/runs with identical identity. */
    bool cache = true;

    /**
     * Root of a persistent result store shared across runners, process
     * shards, and campaign invocations (empty = disabled). Successful
     * cells are published; lookups are integrity-checked and keyed by
     * the same identity as the in-memory cache, so a machine-definition
     * change (new manifest hash) never serves a stale result.
     */
    std::string storePath;

    /** Extra executions granted to a cell whose failure class is
     *  retryable (transient/internal); deterministic failures
     *  (invariant, deadlock, config, workload) never retry. */
    int maxRetries = 0;

    /** Deterministic fault-injection plan (tests/drills only). */
    std::vector<FaultInjection> faults;

    /**
     * Append-only JSONL campaign journal (empty = disabled), written in
     * spec order; with resume=true, cells already journaled under the
     * same campaign, identity, and manifest hash — or held back in
     * `<journalPath>.shards.d` — are served from there instead of
     * re-executing, making an interrupted-and-restarted campaign
     * byte-identical to an uninterrupted one.
     */
    std::string journalPath;
    bool resume = false;

    /** fsync the journal after every appended cell: the journal
     *  survives not just a killed process but a crashed machine. */
    bool journalSync = false;

    /**
     * Cooperative cancellation (Ctrl-C, a service cancel): when
     * non-null and set, no further cell starts executing —
     * already-running cells finish and are journaled, the rest are
     * left as default results. A signal handler may set it (a
     * lock-free atomic store is async-signal-safe), and so may another
     * thread.
     */
    const std::atomic<bool> *cancel = nullptr;

    /**
     * Result-streaming hook: called once for every cell — computed,
     * cache/store hit, or journal replay alike — with the final
     * CellResult, in spec order, as it is released to the journal (not
     * at campaign end). Calls never overlap; at jobs = 1 they run on
     * the calling thread, else on whichever worker released the cell.
     * Cells skipped by cancellation, and cells held back behind them,
     * do not fire. The campaign service streams per-cell result lines
     * to its clients through this.
     */
    std::function<void(const CellResult &)> onCell;

    /** The campaign index of each cell of the spec run (empty: its
     *  position in the spec). A shard worker runs a slice of the
     *  campaign as its spec: fault plans name cells by campaign index
     *  and injected-fault messages print it, as in any other mode. */
    std::vector<std::size_t> campaignIndices;
};

/** What a sampled cell measures from: the workload's length under
 *  the cap, the window plan and one checkpoint per window. All three
 *  are machine-independent (DESIGN §5.4). */
struct SampledWindows
{
    checkpoint::FastForwardInfo info;
    std::vector<checkpoint::WindowPlan> plan;
    std::vector<Checkpoint> checkpoints;
};

/**
 * The workloads of one ExperimentRunner::run(), shared by its cells.
 * The first cell that needs a workload builds it; every later cell, on
 * any thread, gets the same immutable Program, and a cell that asks
 * while another thread builds it waits. Sampled cells of one
 * (workload, cap, sample spec) likewise share one SampledWindows.
 *
 * An entry lives while cells not yet settled name it. The counts come
 * from the cells given at construction (only those may be asked
 * about), and settle() takes each cell off once, whether it computed,
 * hit the cache or store, or failed; so no entry outlives its last
 * cell and nothing is held after the run.
 * A build that returns false is kept, so each of its cells gets the
 * same error; one that throws is not, so the next cell builds again,
 * as it would have alone.
 */
class WorkloadTable
{
  public:
    /** How a workload is built (buildWorkload's signature). */
    using Build = bool (*)(const std::string &name, Program *out,
                           std::string *error);
    /** How a sampled cell's windows are made from its program. */
    using MakeWindows =
        std::function<bool(SampledWindows *out, std::string *error)>;

    /** A table for @p cells, indices into @p spec, built by @p build. */
    WorkloadTable(const CampaignSpec &spec,
                  const std::vector<std::size_t> &cells, Build build);

    /** @p cell's program, its decode table and data image built and
     *  its word list released (Program::releaseData); null with
     *  *error set when the build returned false. */
    std::shared_ptr<const Program> program(const Cell &cell,
                                           std::string *error);

    /** @p cell's sampled windows, made by @p make on first use; null
     *  with *error set when @p make returned false. */
    std::shared_ptr<const SampledWindows>
    windows(const Cell &cell, const MakeWindows &make, std::string *error);

    /** @p cell has settled: each entry it names loses it, and one that
     *  no unsettled cell names is freed. */
    void settle(const Cell &cell);

  private:
    template <typename T>
    struct Entry
    {
        std::size_t cells = 0;      ///< unsettled cells naming it
        bool building = false;
        bool built = false;
        std::shared_ptr<const T> value;     ///< null after a failed build
        std::string error;
    };
    template <typename T>
    using Entries = std::unordered_map<std::string, Entry<T>>;

    template <typename T, typename Make>
    std::shared_ptr<const T> share(Entries<T> &entries,
                                   const std::string &key, const Make &make,
                                   std::string *error);
    template <typename T>
    std::shared_ptr<const T> drop(Entries<T> &entries,
                                  const std::string &key);

    Build _build;
    std::mutex _mu;     ///< guards both maps
    std::condition_variable _buildDone;
    Entries<Program> _programs;
    Entries<SampledWindows> _windows;
};

class ExperimentRunner
{
  public:
    explicit ExperimentRunner(RunnerOptions options = {});

    /** Execute every cell of a campaign; results in spec order. */
    CampaignResult run(const CampaignSpec &spec);

    /** Cells served from cache since construction/clearCache(). */
    std::uint64_t cacheHits() const { return _cacheHits.load(); }

    /** Whether the persistent store opened successfully. */
    bool storeOpen() const { return _store.isOpen(); }

    /** Store traffic of this runner (hits/misses/publishes/bytes). */
    store::StoreCounters storeCounters() const
    {
        return _store.counters();
    }

    /** Distinct results currently cached. */
    std::size_t cacheSize() const;

    void clearCache();

    const RunnerOptions &options() const { return _opts; }

  private:
    /** Per-worker LRU pool of reusable Machine instances (defined in
     *  runner.cc). Machines reset to freshly-constructed state at the
     *  start of every run, so reuse is byte-identical to rebuilding —
     *  it just skips the allocation/construction of every sub-unit. */
    class MachinePool;

    /** Execute one cell, whose configuration hashes to @p manifestHash
     *  (manifestHashes(); empty if it cannot be described); @p fault,
     *  when non-null, is this cell's injection and @p attempt the
     *  1-based execution count. Any exception escaping execution is
     *  converted into a failed result carrying its taxonomy class —
     *  never propagated to the pool. @p pool is the calling worker's
     *  private machine pool. */
    CellResult runCell(const Cell &cell, const std::string &manifestHash,
                       const FaultInjection *fault, int attempt,
                       MachinePool &pool, WorkloadTable &workloads);
    /** The sampled-execution arm of runCell: take the cell's windows
     *  from @p workloads (the first cell of its workload, cap and
     *  spec fast-forwards in-process, plans the windows and collects
     *  their checkpoints as in-memory deltas), run each detailed
     *  window, and aggregate window IPCs into the result's sampling
     *  statistics. Throws SimError subclasses on failure, which
     *  runCell's containment converts as usual. */
    void runSampledCell(const Cell &cell, Machine *machine,
                        const Program &program, WorkloadTable &workloads,
                        CellResult *result);
    /** The injected-execution arm of runCell: fetch (or compute and
     *  publish) the golden reference, arm the planned flip, run, and
     *  classify the outcome against the golden digest. Throws SimError
     *  subclasses only for setup failures (machine cannot inject,
     *  golden run does not finish); outcomes of the injected run
     *  itself are classifications, not errors. */
    void runInjectedCell(const Cell &cell, Machine *machine,
                         const Program &program, CellResult *result);
    /** Golden (uninjected) reference for the cell's identity, served
     *  from the in-memory cache, then the store, then computed on
     *  @p machine and published. */
    inject::GoldenRef goldenFor(const Cell &cell, Machine *machine,
                                const Program &program,
                                const std::string &manifest_hash);
    /** Cache key of @p cell, whose configuration hashes to
     *  @p manifestHash; empty if the cell is not cacheable (bad
     *  machine, empty hash). */
    std::string cacheKey(const Cell &cell,
                         const std::string &manifestHash) const;

    RunnerOptions _opts;

    mutable std::mutex _cacheMutex;
    std::unordered_map<std::string, CellResult> _cache;
    std::atomic<std::uint64_t> _cacheHits{0};

    /** Golden references already resolved this run, keyed by
     *  inject::goldenKey() — a vulnerability campaign shares one
     *  golden run across its thousands of cells. */
    mutable std::mutex _goldenMutex;
    std::unordered_map<std::string, inject::GoldenRef> _golden;

    /** The disk-backed store (closed unless options.storePath set). */
    store::ResultStore _store;
};

} // namespace runner
} // namespace simalpha

#endif // SIMALPHA_RUNNER_RUNNER_HH
