#include "runner.hh"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <stdexcept>
#include <thread>

#include "checkpoint/checkpoint.hh"
#include "common/error.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "runner/journal.hh"
#include "runner/sharded.hh"
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
ExperimentRunner::cacheKey(const Cell &cell,
                           const std::string &manifestHash) const
{
    if (manifestHash.empty())
        return "";
    std::string key = manifestHash;
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

/** Key of a sampled cell's windows: its workload, cap and spec. */
std::string
windowsKey(const Cell &cell)
{
    return cell.workload + '|' + std::to_string(cell.maxInsts) + '|' +
           checkpoint::formatSampleSpec(cell.sample);
}

} // namespace

WorkloadTable::WorkloadTable(const CampaignSpec &spec,
                             const std::vector<std::size_t> &cells,
                             Build build)
    : _build(build)
{
    for (std::size_t i : cells) {
        const Cell &cell = spec.cells[i];
        _programs[cell.workload].cells++;
        if (cell.sample.enabled())
            _windows[windowsKey(cell)].cells++;
    }
}

template <typename T, typename Make>
std::shared_ptr<const T>
WorkloadTable::share(Entries<T> &entries, const std::string &key,
                     const Make &make, std::string *error)
{
    std::unique_lock<std::mutex> lock(_mu);
    auto it = entries.find(key);
    sim_assert(it != entries.end());
    // The reference stays valid: only settle() erases, and not while
    // this cell, which names the entry, is unsettled.
    Entry<T> &entry = it->second;
    _buildDone.wait(lock, [&] { return !entry.building; });
    if (!entry.built) {
        entry.building = true;
        lock.unlock();
        std::shared_ptr<T> value;
        std::string why;
        bool ok = false;
        try {
            value = std::make_shared<T>();
            ok = make(value.get(), &why);
        } catch (...) {
            lock.lock();
            entry.building = false;
            _buildDone.notify_all();
            throw;
        }
        lock.lock();
        entry.building = false;
        entry.built = true;
        if (ok)
            entry.value = std::move(value);
        else
            entry.error = why;
        _buildDone.notify_all();
    }
    if (!entry.value)
        *error = entry.error;
    return entry.value;
}

std::shared_ptr<const Program>
WorkloadTable::program(const Cell &cell, std::string *error)
{
    return share(_programs, cell.workload,
                 [&](Program *out, std::string *why) {
                     if (!_build(cell.workload, out, why))
                         return false;
                     // Build what readers would otherwise build on
                     // first use, then free the words: the image
                     // stands for them. checkpoint::programHash hashes
                     // them, but the runner never calls it (its
                     // sampled path passes no store), so no released
                     // program reaches it; it asserts as much.
                     out->decoded();
                     out->releaseData();
                     return true;
                 },
                 error);
}

std::shared_ptr<const SampledWindows>
WorkloadTable::windows(const Cell &cell, const MakeWindows &make,
                       std::string *error)
{
    return share(_windows, windowsKey(cell), make, error);
}

template <typename T>
std::shared_ptr<const T>
WorkloadTable::drop(Entries<T> &entries, const std::string &key)
{
    auto it = entries.find(key);
    sim_assert(it != entries.end() && it->second.cells > 0);
    if (--it->second.cells > 0)
        return nullptr;
    std::shared_ptr<const T> last = std::move(it->second.value);
    entries.erase(it);
    return last;
}

void
WorkloadTable::settle(const Cell &cell)
{
    std::shared_ptr<const Program> program;
    std::shared_ptr<const SampledWindows> windows;
    std::lock_guard<std::mutex> lock(_mu);
    program = drop(_programs, cell.workload);
    if (cell.sample.enabled())
        windows = drop(_windows, windowsKey(cell));
    // Declared before the lock, so what was the last reference is
    // freed after the lock is released.
}

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
                                 WorkloadTable &workloads,
                                 CellResult *result)
{
    namespace ck = checkpoint;

    // The first sampled cell of this workload, cap and spec makes the
    // windows for all of them: the workload's length under the cap in
    // one cheap functional pass, then the checkpoints, in-memory deltas
    // over the program's data image; nothing of them is read from or
    // written to the store.
    std::string error;
    std::shared_ptr<const SampledWindows> windows = workloads.windows(
        cell,
        [&](SampledWindows *out, std::string *why) {
            out->info = ck::fastForward(program, cell.maxInsts);
            out->plan = ck::planWindows(out->info.totalInsts, cell.sample);
            std::vector<std::uint64_t> offsets;
            offsets.reserve(out->plan.size());
            for (const ck::WindowPlan &w : out->plan)
                offsets.push_back(w.checkpointAt);
            return ck::collectCheckpoints(program, offsets, nullptr,
                                          &out->checkpoints, why);
        },
        &error);
    if (!windows)
        throw InvariantError(error);
    const ck::FastForwardInfo &info = windows->info;
    const std::vector<ck::WindowPlan> &plan = windows->plan;

    // The measured windows. Checkpoints are deterministic functions of
    // the program, which keeps sampled campaigns byte-identical across
    // --jobs, shards, and warm/cold stores.
    Cycle total_cycles = 0;
    std::uint64_t total_insts = 0;
    std::vector<double> ipcs;
    std::map<std::string, std::uint64_t> counters;
    for (std::size_t i = 0; i < plan.size(); i++) {
        std::map<std::string, std::uint64_t> wc;
        RunResult wr = machine->runWindow(program, windows->checkpoints[i],
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
ExperimentRunner::runCell(const Cell &cell, const std::string &manifestHash,
                          const FaultInjection *fault, int attempt,
                          MachinePool &pool, WorkloadTable &workloads)
{
    CellResult result;
    result.cell = cell;
    result.seed = cellSeed(cell);

    bool fault_active =
        fault && (fault->times < 0 || attempt <= fault->times);

    try {
        std::string error;
        if (manifestHash.empty()) {
            // Describe again only for the message.
            Config config;
            validate::tryDescribeMachine(cell.machine, cell.opt, &config,
                                         &error);
            result.error = error;
            result.errorClass = "config";
            return result;
        }
        result.manifestHash = manifestHash;

        std::shared_ptr<const Program> shared =
            workloads.program(cell, &error);
        if (!shared) {
            result.error = error;
            result.errorClass = "workload";
            return result;
        }
        const Program &program = *shared;

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
            runSampledCell(cell, machine, program, workloads, &result);
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

CampaignResult
ExperimentRunner::run(const CampaignSpec &spec)
{
    // The one executor: ShardedRun replays the journal, keeps each cell
    // this pool settles durable in <journal>.shards.d at once, and
    // releases lines to the journal and onCell in spec order — so a
    // journal at any --jobs is byte-identical to --jobs 1.
    ShardedOptions so;
    so.journalPath = _opts.journalPath;
    so.journalSync = _opts.journalSync;
    so.resume = _opts.resume;
    if (!_opts.journalPath.empty())
        so.scratchDir = _opts.journalPath + ".shards.d";
    // The k-th released line is cell k's. The replayed prefix is
    // released while `sharded` is being built; it fires right after.
    const ShardedRun *live = nullptr;
    std::size_t released = 0;
    if (_opts.onCell)
        so.sink = [&](const std::string &, bool, bool) {
            if (live)
                _opts.onCell(live->result(released));
            released++;
        };
    ShardedRun sharded(spec, so);
    for (std::size_t i = 0; _opts.onCell && i < released; i++)
        _opts.onCell(sharded.result(i));
    live = &sharded;

    // The cells still to settle, and the workloads they share. The
    // table builds through buildWorkload, and sampled cells make their
    // windows through fastForward and collectCheckpoints, all named in
    // this file, so a link-time wrapper of them (campaignbench's) still
    // sees every real build and pass.
    std::vector<std::size_t> todo;
    for (std::size_t i = 0; i < spec.cells.size(); i++)
        if (!sharded.settled(i))
            todo.push_back(i);
    WorkloadTable workloads(spec, todo, &buildWorkload);

    // A cell's result: the in-memory cache, then the persistent store,
    // then an execution whose result is cached and published.
    auto compute = [&](std::size_t i, MachinePool &pool) {
        const Cell &cell = spec.cells[i];
        // Described once per configuration, by the ShardedRun.
        const std::string &hash = sharded.manifestHash(i);
        std::string key = (_opts.cache || _store.isOpen())
                              ? cacheKey(cell, hash)
                              : std::string();

        if (!key.empty() && _opts.cache) {
            std::lock_guard<std::mutex> lock(_cacheMutex);
            auto it = _cache.find(key);
            if (it != _cache.end()) {
                CellResult cached = it->second;
                cached.cell = cell;     // identity of *this* cell
                cached.fromCache = true;
                _cacheHits.fetch_add(1);
                return cached;
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
                return stored;
            }
        }

        const std::size_t index =
            _opts.campaignIndices.empty() ? i : _opts.campaignIndices[i];
        const FaultInjection *fault = nullptr;
        for (const FaultInjection &f : _opts.faults)
            if (f.cellIndex == index)
                fault = &f;

        CellResult r;
        int attempt = 0;
        for (;;) {
            attempt++;
            r = runCell(cell, hash, fault, attempt, pool, workloads);
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
        return r;
    };

    // The in-process transport: the calling thread and jobs - 1 more
    // take the unsettled cells in spec order from one shared cursor, so
    // uneven cells stay balanced and the release cursor keeps up; each
    // reuses its own machines. At jobs = 1 every cell executes, and
    // onCell fires, on the calling thread.
    // Cancelled (Ctrl-C / service cancel): take no new cell, so the
    // cells left unsettled run on a later --resume.
    auto cancelled = [this] { return _opts.cancel && _opts.cancel->load(); };
    std::atomic<std::size_t> next{0};
    auto worker = [&] {
        MachinePool pool;
        for (std::size_t k = 0;
             !cancelled() && (k = next++) < todo.size();) {
            CellResult r = compute(todo[k], pool);
            workloads.settle(spec.cells[todo[k]]);
            sharded.deliver(todo[k], std::move(r));
        }
    };

    const std::size_t jobs = std::min<std::size_t>(
        todo.size(), _opts.jobs > 0
                         ? unsigned(_opts.jobs)
                         : std::max(1u, std::thread::hardware_concurrency()));
    std::vector<std::thread> threads;
    for (std::size_t w = 1; w < jobs; w++)
        threads.emplace_back(worker);
    worker();
    for (std::thread &t : threads)
        t.join();
    return sharded.finish().result;
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
