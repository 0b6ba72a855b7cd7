#include "runner.hh"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <deque>
#include <stdexcept>
#include <thread>

#include "checkpoint/checkpoint.hh"
#include "common/error.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "runner/journal.hh"
#include "validate/manifest.hh"

namespace simalpha {
namespace runner {

using validate::Optimization;

RunResult
CellResult::toRunResult() const
{
    RunResult r;
    r.machine = cell.machine;
    if (cell.opt != Optimization::None)
        r.machine += "+" + validate::optimizationName(cell.opt);
    r.program = cell.workload;
    r.cycles = cycles;
    r.instsCommitted = instsCommitted;
    r.finished = finished;
    return r;
}

const CellResult *
CampaignResult::find(const std::string &machine,
                     const std::string &workload,
                     Optimization opt) const
{
    for (const CellResult &r : cells)
        if (r.cell.machine == machine && r.cell.workload == workload &&
            r.cell.opt == opt)
            return &r;
    return nullptr;
}

std::size_t
CampaignResult::okCount() const
{
    std::size_t n = 0;
    for (const CellResult &r : cells)
        n += r.ok;
    return n;
}

std::size_t
CampaignResult::errorCount() const
{
    return cells.size() - okCount();
}

/** Campaign tag inside store payloads: stored results are shared
 *  across campaigns, so their journal lines carry this fixed name
 *  instead of whichever campaign happened to publish them. */
static constexpr const char *kStorePayloadCampaign = "store";

/** Tag for persisted *deterministic* failures (invariant violations,
 *  deadlocks): re-running the identical configuration would fail the
 *  identical way, so reruns serve the failure instead of recomputing
 *  it. Kept distinct from the success tag so failed entries are
 *  recognizable in the store and can never be mistaken for results.
 *  Transient/crash/timeout failures are never published — they must
 *  re-execute. */
static constexpr const char *kStoreFailedPayloadCampaign =
    "store-failed";

/** Failure classes that are deterministic replays of the simulation
 *  itself (safe to persist); everything else is environmental. */
static bool
deterministicFailure(const CellResult &r)
{
    return !r.ok &&
           (r.errorClass == "invariant" || r.errorClass == "deadlock");
}

ExperimentRunner::ExperimentRunner(RunnerOptions options)
    : _opts(options)
{
    if (!_opts.storePath.empty()) {
        std::string error;
        if (!_store.open(_opts.storePath, &error))
            warn("%s (persistent result store disabled)",
                 error.c_str());
    }
}

std::string
ExperimentRunner::currentManifestHash(const Cell &cell)
{
    return cellManifestHash(cell);
}

std::string
ExperimentRunner::cacheKey(const Cell &cell) const
{
    std::string key = currentManifestHash(cell);
    if (key.empty())
        return "";
    key += '|';
    key += cell.workload;
    key += '|';
    key += std::to_string(cell.maxInsts);
    key += '|';
    key += std::to_string(cellSeed(cell));
    // Sampled cells measure different things than full runs of the
    // same identity; keep their keys disjoint. Unsampled keys stay
    // byte-identical to every store entry published before sampling
    // existed.
    if (cell.sample.enabled()) {
        key += "|sample=";
        key += checkpoint::formatSampleSpec(cell.sample);
    }
    // Injected cells likewise get disjoint keys; plain keys keep
    // their historical bytes.
    if (cell.inject.enabled()) {
        key += "|inject=";
        key += inject::formatInjectSpec(cell.inject);
    }
    return key;
}

namespace {

/**
 * The Stall injection's machine: fetches nothing, commits nothing, and
 * relies on its forward-progress watchdog to declare the deadlock —
 * the same detection contract the real cores implement.
 */
class StallingMachine : public Machine
{
  public:
    RunResult
    run(const Program &program, std::uint64_t max_insts) override
    {
        (void)max_insts;
        constexpr Cycle watchdog = 1000;
        for (Cycle cycle = 0;; cycle++) {
            if (cycle > watchdog) {
                DeadlockInfo info;
                info.machine = name();
                info.program = program.name;
                info.cycle = cycle;
                info.lastCommitCycle = 0;
                info.committed = 0;
                info.fetchPc = program.entryPc;
                info.windowOccupancy = 0;
                info.detail = "injected stall";
                throw DeadlockError(info);
            }
        }
    }

    stats::Group &statGroup() override { return _stats; }
    std::string name() const override { return "stall-stub"; }

  private:
    stats::Group _stats{"stall-stub"};
};

} // namespace

/**
 * A small LRU pool of Machine instances keyed by (machine, opt),
 * private to one worker thread. run() begins with a full machine
 * reset, so a pooled core is byte-identical to a freshly built one;
 * fault-injection stand-ins (StallingMachine) are never pooled.
 */
class ExperimentRunner::MachinePool
{
  public:
    /** Fetch-or-build the machine for @p cell; nullptr (with @p error
     *  set) if the machine name is unknown. The pool keeps ownership. */
    Machine *
    acquire(const Cell &cell, std::string *error)
    {
        std::string key =
            cell.machine + "|" + validate::optimizationName(cell.opt);
        for (auto it = _entries.begin(); it != _entries.end(); ++it) {
            if (it->key == key) {
                // Move to the back (most recently used).
                Entry hit = std::move(*it);
                _entries.erase(it);
                _entries.push_back(std::move(hit));
                return _entries.back().machine.get();
            }
        }
        std::unique_ptr<Machine> built =
            validate::tryMakeMachine(cell.machine, cell.opt, error);
        if (!built)
            return nullptr;
        if (_entries.size() >= kCapacity)
            _entries.erase(_entries.begin());
        _entries.push_back(Entry{std::move(key), std::move(built)});
        return _entries.back().machine.get();
    }

  private:
    struct Entry
    {
        std::string key;
        std::unique_ptr<Machine> machine;
    };

    /** Distinct configurations kept warm per worker; campaigns sweep
     *  a handful of machines over many workloads, so a few entries
     *  cover nearly every cell. */
    static constexpr std::size_t kCapacity = 4;

    std::vector<Entry> _entries;
};

void
ExperimentRunner::runSampledCell(const Cell &cell, Machine *machine,
                                 const Program &program,
                                 CellResult *result)
{
    namespace ck = checkpoint;

    // Workload length under the cap: one cheap functional pass. The
    // checkpoints are in-memory deltas over the program's data image;
    // nothing of them is read from or written to the store.
    ck::FastForwardInfo info = ck::fastForward(program, cell.maxInsts);
    std::vector<ck::WindowPlan> plan =
        ck::planWindows(info.totalInsts, cell.sample);

    std::vector<std::uint64_t> offsets;
    offsets.reserve(plan.size());
    for (const ck::WindowPlan &w : plan)
        offsets.push_back(w.checkpointAt);

    std::vector<Checkpoint> ckpts;
    std::string error;
    if (!ck::collectCheckpoints(program, offsets, nullptr, &ckpts,
                                &error))
        throw InvariantError(error);

    // The measured windows. Checkpoints are deterministic functions of
    // the program, which keeps sampled campaigns byte-identical across
    // --jobs, shards, and warm/cold stores.
    Cycle total_cycles = 0;
    std::uint64_t total_insts = 0;
    std::vector<double> ipcs;
    std::map<std::string, std::uint64_t> counters;
    for (std::size_t i = 0; i < plan.size(); i++) {
        std::map<std::string, std::uint64_t> wc;
        RunResult wr = machine->runWindow(program, ckpts[i],
                                          plan[i].warmup,
                                          plan[i].measure, &wc);
        total_cycles += wr.cycles;
        total_insts += wr.instsCommitted;
        if (wr.cycles)
            ipcs.push_back(double(wr.instsCommitted) /
                           double(wr.cycles));
        for (const auto &kv : wc)
            counters[kv.first] += kv.second;
    }

    ck::SampleStats stats = ck::sampleStats(ipcs);
    result->ok = true;
    result->cycles = total_cycles;
    result->instsCommitted = total_insts;
    result->finished = info.finished;
    result->counters = std::move(counters);
    result->sampleWindows = stats.n;
    result->sampleTotalInsts = info.totalInsts;
    result->sampleIpcMean = stats.mean;
    result->sampleIpcStddev = stats.stddev;
    result->sampleIpcCi = stats.ciHalf;
}

inject::GoldenRef
ExperimentRunner::goldenFor(const Cell &cell, Machine *machine,
                            const Program &program,
                            const std::string &manifest_hash)
{
    std::string key =
        inject::goldenKey(manifest_hash, cell.workload, cell.maxInsts);
    {
        std::lock_guard<std::mutex> lock(_goldenMutex);
        auto it = _golden.find(key);
        if (it != _golden.end())
            return it->second;
    }

    inject::GoldenRef golden;
    bool have = false;
    if (_store.isOpen()) {
        std::string payload;
        have = _store.lookup(key, &payload) &&
               inject::parseGolden(payload, &golden);
    }
    if (!have) {
        // A concurrent worker may compute the same golden; both runs
        // produce identical bytes, so the race is benign.
        machine->armInjection(nullptr, 0);
        RunResult r = machine->run(program, cell.maxInsts);
        Checkpoint state;
        if (!machine->architecturalState(&state))
            throw ConfigError(
                "machine '" + cell.machine +
                "' does not expose architectural state for "
                "vulnerability classification");
        golden.digest = inject::archDigest(state);
        golden.cycles = r.cycles;
        golden.insts = r.instsCommitted;
        golden.finished = r.finished;
        if (_store.isOpen()) {
            std::string serror;
            if (!_store.publish(key, inject::serializeGolden(golden),
                                &serror))
                warn("%s (golden reference not persisted)",
                     serror.c_str());
        }
    }

    std::lock_guard<std::mutex> lock(_goldenMutex);
    _golden.emplace(key, golden);
    return golden;
}

void
ExperimentRunner::runInjectedCell(const Cell &cell, Machine *machine,
                                  const Program &program,
                                  CellResult *result)
{
    // The armed spec persists on the pooled machine across runs:
    // disarm on every exit path so later cells see a clean core.
    struct Disarm
    {
        Machine *machine;
        ~Disarm() { machine->armInjection(nullptr, 0); }
    } disarm{machine};

    inject::GoldenRef golden =
        goldenFor(cell, machine, program, result->manifestHash);
    if (!golden.finished)
        throw ConfigError(
            "workload '" + cell.workload + "' does not finish within " +
            std::to_string(cell.maxInsts) +
            " instructions on '" + cell.machine +
            "'; vulnerability classification needs the uninjected "
            "reference run to halt");

    // Budgets derived from the golden run, so a wedged injected run
    // is detected deterministically: an instruction cap the commit
    // stage enforces, and a cycle budget for runs that stop
    // committing in a way the forward-progress watchdog cannot see.
    std::uint64_t inst_cap = golden.insts * 2 + 1000;
    Cycle cycle_budget = golden.cycles * 8 + 100000;
    if (!machine->armInjection(&cell.inject, cycle_budget))
        throw ConfigError("machine '" + cell.machine +
                          "' does not support state injection");

    inject::Outcome outcome;
    std::string detail;
    auto fill_failure = [&](const char *what) {
        detail = machine->injectionNote();
        if (!detail.empty())
            detail += "; ";
        detail += what;
        result->cycles = 0;
        result->instsCommitted = 0;
        result->finished = false;
        result->counters.clear();
    };

    try {
        RunResult r = machine->run(program, inst_cap);
        result->cycles = r.cycles;
        result->instsCommitted = r.instsCommitted;
        result->finished = r.finished;
        result->counters = machine->statGroup().snapshot();
        detail = machine->injectionNote();
        if (detail.empty())
            detail = "(run ended before the strike cycle)";
        if (!r.finished) {
            // Hit the instruction cap without halting: the flip sent
            // execution somewhere it never returns from.
            outcome = inject::Outcome::Timeout;
        } else {
            Checkpoint state;
            if (!machine->architecturalState(&state))
                throw ConfigError(
                    "machine '" + cell.machine +
                    "' does not expose architectural state");
            outcome = inject::archDigest(state) == golden.digest
                          ? inject::Outcome::Masked
                          : inject::Outcome::Sdc;
        }
    } catch (const DeadlockError &e) {
        outcome = inject::Outcome::Deadlock;
        fill_failure(e.what());
    } catch (const TimeoutError &e) {
        outcome = inject::Outcome::Timeout;
        fill_failure(e.what());
    } catch (const SimError &e) {
        outcome = inject::Outcome::Crash;
        fill_failure(e.what());
    } catch (const std::exception &e) {
        outcome = inject::Outcome::Crash;
        fill_failure(e.what());
    }

    result->ok = true;
    result->injectOutcome = inject::outcomeName(outcome);
    result->injectDetail = detail;
}

CellResult
ExperimentRunner::runCell(const Cell &cell, const FaultInjection *fault,
                          int attempt, MachinePool &pool)
{
    CellResult result;
    result.cell = cell;
    result.seed = cellSeed(cell);

    bool fault_active =
        fault && (fault->times < 0 || attempt <= fault->times);

    try {
        std::string error;
        Config config;
        if (!validate::tryDescribeMachine(cell.machine, cell.opt,
                                          &config, &error)) {
            result.error = error;
            result.errorClass = "config";
            return result;
        }
        result.manifestHash = validate::manifestHashHex(config);

        Program program;
        if (!buildWorkload(cell.workload, &program, &error)) {
            result.error = error;
            result.errorClass = "workload";
            return result;
        }

        // Fault stand-ins are built fresh (and discarded); real
        // machines come from the worker's pool and are reused across
        // cells — run() resets them to freshly-constructed state.
        std::unique_ptr<Machine> standIn;
        Machine *machine = nullptr;
        if (fault_active && fault->kind == FaultInjection::Kind::Stall) {
            standIn = std::make_unique<StallingMachine>();
            machine = standIn.get();
        } else {
            machine = pool.acquire(cell, &error);
        }
        if (!machine) {
            result.error = error;
            result.errorClass = "config";
            return result;
        }

        if (fault_active) {
            if (fault->kind == FaultInjection::Kind::Panic)
                panic("injected panic (cell %zu, attempt %d)",
                      fault->cellIndex, attempt);
            if (fault->kind == FaultInjection::Kind::Throw)
                throw TransientError(
                    "injected transient fault (cell " +
                    std::to_string(fault->cellIndex) + ", attempt " +
                    std::to_string(attempt) + ")");
            // The crash modes deliberately bypass the exception-based
            // containment below: no catch clause can help, only a
            // process boundary can.
            if (fault->kind == FaultInjection::Kind::Abort)
                std::abort();
            if (fault->kind == FaultInjection::Kind::Segfault) {
                // Default action, so a sanitizer's SIGSEGV handler
                // cannot turn the crash into a plain exit(1).
                std::signal(SIGSEGV, SIG_DFL);
                std::raise(SIGSEGV);
            }
            if (fault->kind == FaultInjection::Kind::Hang)
                for (;;)
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(50));
        }

        // The cell's private RNG: any stochastic behaviour during cell
        // execution must draw from here (never from shared state),
        // which keeps results independent of scheduling. The bundled
        // workloads and machine models are internally deterministic,
        // so today the stream is untouched; the seed is still recorded
        // in artifacts.
        Random rng(result.seed);
        (void)rng;

        if (cell.sample.enabled() && cell.inject.enabled()) {
            throw ConfigError(
                "a cell cannot be both sampled and injected");
        } else if (cell.inject.enabled()) {
            runInjectedCell(cell, machine, program, &result);
        } else if (cell.sample.enabled()) {
            runSampledCell(cell, machine, program, &result);
        } else {
            RunResult r = machine->run(program, cell.maxInsts);
            result.ok = true;
            result.cycles = r.cycles;
            result.instsCommitted = r.instsCommitted;
            result.finished = r.finished;
            result.counters = machine->statGroup().snapshot();
        }
    } catch (const SimError &e) {
        result.ok = false;
        result.error = e.what();
        result.errorClass = e.kind();
        result.retryable = e.retryable();
        result.cycles = 0;
        result.instsCommitted = 0;
        result.finished = false;
        result.counters.clear();
    } catch (const std::exception &e) {
        // Unclassified failures are treated as environmental: worth a
        // bounded retry, reported as "internal" if they persist.
        result.ok = false;
        result.error = e.what();
        result.errorClass = "internal";
        result.retryable = true;
        result.cycles = 0;
        result.instsCommitted = 0;
        result.finished = false;
        result.counters.clear();
    }
    return result;
}

namespace {

/**
 * A per-worker deque of cell indices with LIFO owner access and FIFO
 * stealing, the classic work-stealing split: owners pop recently
 * pushed (cache-warm) work, thieves take the oldest (largest) items.
 * All work is enqueued before the pool starts, so "every deque empty"
 * means "done" — no condition variables needed.
 */
struct WorkQueue
{
    std::mutex mutex;
    std::deque<std::size_t> items;

    bool
    popFront(std::size_t *out)
    {
        std::lock_guard<std::mutex> lock(mutex);
        if (items.empty())
            return false;
        *out = items.front();
        items.pop_front();
        return true;
    }

    bool
    stealBack(std::size_t *out)
    {
        std::lock_guard<std::mutex> lock(mutex);
        if (items.empty())
            return false;
        *out = items.back();
        items.pop_back();
        return true;
    }
};

} // namespace

CampaignResult
ExperimentRunner::run(const CampaignSpec &spec)
{
    CampaignResult result;
    result.campaign = spec.name;
    result.cells.resize(spec.cells.size());

    // Resume: cells already journaled (same campaign + identity) are
    // served from the journal, provided their manifest hash still
    // matches the current machine definition.
    std::unordered_map<std::string, CellResult> replay;
    CampaignJournal journal;
    if (!_opts.journalPath.empty()) {
        std::string jerror;
        if (_opts.resume &&
            !loadJournal(_opts.journalPath, spec.name, &replay,
                         &jerror))
            warn("%s (resuming nothing)", jerror.c_str());
        if (!journal.open(_opts.journalPath, &jerror,
                          _opts.journalSync))
            warn("%s (campaign will not be resumable)",
                 jerror.c_str());
    }

    // Every settled cell flows through here: fire the streaming hook
    // (serialized — the consumer never sees concurrent calls) and
    // store the result in its preallocated slot.
    auto settle = [&](std::size_t i, CellResult &&r) {
        if (_opts.onCell) {
            std::lock_guard<std::mutex> lock(_hookMutex);
            _opts.onCell(r);
        }
        result.cells[i] = std::move(r);
    };

    auto cancelled = [&]() {
        return (_opts.cancel && *_opts.cancel) ||
               (_opts.cancelAtomic &&
                _opts.cancelAtomic->load(std::memory_order_relaxed));
    };

    // Each task writes exactly one preallocated slot, so completion
    // order never affects result order (or bytes). The pool of
    // reusable machines belongs to the calling worker alone.
    auto execute = [&](std::size_t i, MachinePool &pool) {
        const Cell &cell = spec.cells[i];

        // Cancelled (Ctrl-C / service cancel): leave the slot as a
        // default result and journal nothing, so a later --resume
        // re-runs the cell.
        if (cancelled())
            return;

        if (!replay.empty()) {
            auto it = replay.find(journalKey(cell));
            // An unknown machine journals an empty manifest hash, so
            // empty==empty correctly replays still-unknown machines.
            if (it != replay.end() &&
                it->second.manifestHash == currentManifestHash(cell)) {
                CellResult journaled = it->second;
                journaled.cell = cell;  // identity of *this* cell
                settle(i, std::move(journaled));
                return;
            }
        }

        std::string key = (_opts.cache || _store.isOpen())
                              ? cacheKey(cell)
                              : std::string();

        if (!key.empty() && _opts.cache) {
            bool hit = false;
            CellResult cached;
            {
                std::lock_guard<std::mutex> lock(_cacheMutex);
                auto it = _cache.find(key);
                if (it != _cache.end()) {
                    cached = it->second;
                    hit = true;
                }
            }
            if (hit) {
                cached.cell = cell;     // identity of *this* cell
                cached.fromCache = true;
                if (journal.isOpen())
                    journal.append(spec.name, cached);
                _cacheHits.fetch_add(1);
                settle(i, std::move(cached));
                return;
            }
        }

        // The persistent store: same identity key, shared with every
        // other runner/shard/invocation pointed at the same root. The
        // payload is a campaign journal line, which round-trips every
        // serialized field — so a store hit is byte-identical to a
        // computed result in artifacts and journals alike.
        if (!key.empty() && _store.isOpen()) {
            std::string payload;
            CellResult stored;
            std::string stored_key;
            if (_store.lookup(key, &payload) &&
                (parseJournalLine(payload, kStorePayloadCampaign,
                                  &stored, &stored_key) ||
                 parseJournalLine(payload, kStoreFailedPayloadCampaign,
                                  &stored, &stored_key))) {
                stored.cell = cell;     // identity of *this* cell
                stored.fromJournal = false;
                stored.fromStore = true;
                if (_opts.cache) {
                    std::lock_guard<std::mutex> lock(_cacheMutex);
                    _cache.emplace(key, stored);
                }
                if (journal.isOpen())
                    journal.append(spec.name, stored);
                settle(i, std::move(stored));
                return;
            }
        }

        const FaultInjection *fault = nullptr;
        for (const FaultInjection &f : _opts.faults)
            if (f.cellIndex == i)
                fault = &f;

        CellResult r;
        int attempt = 0;
        for (;;) {
            attempt++;
            r = runCell(cell, fault, attempt, pool);
            if (r.ok || !r.retryable || attempt > _opts.maxRetries)
                break;
        }
        r.attempts = attempt;

        // Deterministic failures are persisted only when no fault was
        // injected into the cell: an injected deadlock/panic says
        // nothing about the real configuration and must not be served
        // to a fault-free rerun.
        bool persist_failure = deterministicFailure(r) && !fault;
        if (!key.empty() && (r.ok || persist_failure)) {
            if (_opts.cache && r.ok) {
                std::lock_guard<std::mutex> lock(_cacheMutex);
                _cache.emplace(key, r);
            }
            if (_store.isOpen()) {
                std::string serror;
                const char *tag = r.ok ? kStorePayloadCampaign
                                       : kStoreFailedPayloadCampaign;
                if (!_store.publish(key, journalLine(tag, r), &serror))
                    warn("%s (result not persisted)", serror.c_str());
            }
        }
        if (journal.isOpen())
            journal.append(spec.name, r);
        settle(i, std::move(r));
    };

    int jobs = _opts.jobs;
    if (jobs <= 0) {
        unsigned hw = std::thread::hardware_concurrency();
        jobs = hw ? int(hw) : 1;
    }
    jobs = int(std::min<std::size_t>(std::size_t(jobs),
                                     std::max<std::size_t>(
                                         spec.cells.size(), 1)));

    if (jobs <= 1) {
        MachinePool pool;
        for (std::size_t i = 0; i < spec.cells.size(); i++)
            execute(i, pool);
        return result;
    }

    // Round-robin initial distribution over per-worker deques.
    std::vector<WorkQueue> queues((std::size_t(jobs)));
    for (std::size_t i = 0; i < spec.cells.size(); i++)
        queues[i % std::size_t(jobs)].items.push_back(i);

    auto worker = [&](std::size_t self) {
        MachinePool pool;
        std::size_t task;
        for (;;) {
            if (queues[self].popFront(&task)) {
                execute(task, pool);
                continue;
            }
            bool stolen = false;
            for (std::size_t k = 1; k < queues.size() && !stolen; k++) {
                std::size_t victim = (self + k) % queues.size();
                stolen = queues[victim].stealBack(&task);
            }
            if (!stolen)
                return;     // nothing left anywhere: pool drains
            execute(task, pool);
        }
    };

    std::vector<std::thread> threads;
    threads.reserve(std::size_t(jobs));
    for (std::size_t w = 0; w < std::size_t(jobs); w++)
        threads.emplace_back(worker, w);
    for (std::thread &t : threads)
        t.join();
    return result;
}

std::size_t
ExperimentRunner::cacheSize() const
{
    std::lock_guard<std::mutex> lock(_cacheMutex);
    return _cache.size();
}

void
ExperimentRunner::clearCache()
{
    std::lock_guard<std::mutex> lock(_cacheMutex);
    _cache.clear();
    _cacheHits.store(0);
}

} // namespace runner
} // namespace simalpha
