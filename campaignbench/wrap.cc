/**
 * @file
 * Link-time wrappers that record layer spans from outside the
 * simulator's libraries.
 *
 * CMakeLists.txt links with --wrap=<symbol> for each function below, so
 * every call to it from another object file (runner → checkpoint,
 * checkpoint → store, server → runner, dispatcher → client, ...) lands
 * in __wrap_<symbol> here, which opens a span and forwards to
 * __real_<symbol>. Calls inside one object file are not redirected,
 * which is why collectCheckpoints is re-composed from its public parts
 * while tracing: that splits generation from serialization and publish.
 *
 * Member functions are declared as free functions taking the object
 * pointer first (and, for class-type returns, the hidden return slot
 * before it), which is how the Itanium C++ ABI passes them.
 *
 * With tracing off every wrapper forwards after one relaxed atomic load.
 */

#include <algorithm>
#include <map>
#include <memory>

#include "checkpoint/checkpoint.hh"
#include "core/core.hh"
#include "runner/journal.hh"
#include "runner/runner.hh"
#include "probe.hh"
#include "serve/client.hh"
#include "trace.hh"
#include "validate/machines.hh"

using namespace simalpha;
using cbench::Scope;
using cbench::Trace;

#define STR_T "NSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE"
#define SYM_BUILD_WORKLOAD \
    "_ZN8simalpha6runner13buildWorkloadERK" STR_T "PNS_7ProgramEPS6_"
#define SYM_TRY_MAKE_MACHINE \
    "_ZN8simalpha8validate14tryMakeMachineERK" STR_T \
    "NS0_12OptimizationEPS6_"
#define SYM_FAST_FORWARD "_ZN8simalpha10checkpoint11fastForwardERKNS_7ProgramEm"
#define SYM_COLLECT \
    "_ZN8simalpha10checkpoint18collectCheckpointsERKNS_7ProgramERKSt6vecto" \
    "rImSaImEEPNS_5store11ResultStoreEPS4_INS_10CheckpointESaISC_EEP" STR_T
#define SYM_LOOKUP \
    "_ZN8simalpha5store11ResultStore6lookupERK" STR_T "PS7_"
#define SYM_PUBLISH \
    "_ZN8simalpha5store11ResultStore7publishERK" STR_T "S9_PS7_"
#define SYM_TOUCH_PLANNED \
    "_ZN8simalpha10checkpoint23touchPlannedCheckpointsERKNS_7ProgramEmRKNS0" \
    "_10SampleSpecEPNS_5store11ResultStoreE"
#define SYM_TOUCH "_ZN8simalpha5store11ResultStore5touchERK" STR_T
#define SYM_STORE_DTOR "_ZN8simalpha5store11ResultStoreD1Ev"
#define SYM_RUNNER_RUN \
    "_ZN8simalpha6runner16ExperimentRunner3runERKNS0_12CampaignSpecE"
#define SYM_JOURNAL_APPEND \
    "_ZN8simalpha6runner15CampaignJournal6appendERK" STR_T \
    "RKNS0_10CellResultE"
#define SYM_CELL_SEED "_ZN8simalpha6runner8cellSeedERKNS0_4CellE"
#define SYM_SUBMIT \
    "_ZN8simalpha5serve14submitCampaignERKNS0_13ClientOptionsERK" STR_T \
    "mSB_bRKSt8functionIFvSB_EE"

// Every wrapper has a __real_ twin the linker binds to the original.
#define WRAPPED(ret, name, sym, ...)                                     \
    ret real_##name(__VA_ARGS__) asm("__real_" sym);                     \
    ret wrap_##name(__VA_ARGS__) asm("__wrap_" sym)

WRAPPED(bool, buildWorkload, SYM_BUILD_WORKLOAD, const std::string &,
        Program *, std::string *);
WRAPPED(std::unique_ptr<Machine>, tryMakeMachine, SYM_TRY_MAKE_MACHINE,
        const std::string &, validate::Optimization, std::string *);
WRAPPED(checkpoint::FastForwardInfo, fastForward, SYM_FAST_FORWARD,
        const Program &, std::uint64_t);
WRAPPED(bool, collectCheckpoints, SYM_COLLECT, const Program &,
        const std::vector<std::uint64_t> &, store::ResultStore *,
        std::vector<Checkpoint> *, std::string *);
WRAPPED(bool, storeLookup, SYM_LOOKUP, store::ResultStore *,
        const std::string &, std::string *);
WRAPPED(bool, storePublish, SYM_PUBLISH, store::ResultStore *,
        const std::string &, const std::string &, std::string *);
WRAPPED(std::size_t, touchPlanned, SYM_TOUCH_PLANNED, const Program &,
        std::uint64_t, const checkpoint::SampleSpec &, store::ResultStore *);
WRAPPED(bool, storeTouch, SYM_TOUCH, store::ResultStore *,
        const std::string &);
WRAPPED(void, storeDtor, SYM_STORE_DTOR, store::ResultStore *);
WRAPPED(runner::CampaignResult, runnerRun, SYM_RUNNER_RUN,
        runner::ExperimentRunner *, const runner::CampaignSpec &);
WRAPPED(void, journalAppend, SYM_JOURNAL_APPEND, runner::CampaignJournal *,
        const std::string &, const runner::CellResult &);
WRAPPED(std::uint64_t, cellSeed, SYM_CELL_SEED, const runner::Cell &);
WRAPPED(serve::SubmitOutcome, submitCampaign, SYM_SUBMIT,
        const serve::ClientOptions &, const std::string &, std::uint64_t,
        const std::string &, bool,
        const std::function<void(const std::string &)> &);

namespace {

/**
 * A machine that times run() and runWindow() of the machine it wraps
 * and, after each, reads the modelled components' counters from
 * outside: AlphaCore's caches, TLB, DRAM, and core stat group.
 */
class TracedMachine final : public Machine
{
  public:
    explicit TracedMachine(std::unique_ptr<Machine> inner)
        : _inner(std::move(inner)),
          _alpha(dynamic_cast<AlphaCore *>(_inner.get()))
    {
    }

    RunResult
    run(const Program &program, std::uint64_t max_insts) override
    {
        RunResult r;
        {
            Scope s(_alpha ? "core.run" : "outorder.run",
                    _alpha ? cbench::kCore : cbench::kOutorder);
            r = _inner->run(program, max_insts);
            s.work(r.instsCommitted);
        }
        recordCounts();
        return r;
    }

    RunResult
    runWindow(const Program &program, const Checkpoint &start,
              std::uint64_t warmup_insts, std::uint64_t measure_insts,
              std::map<std::string, std::uint64_t> *measured) override
    {
        RunResult r;
        {
            Scope s(_alpha ? "core.window" : "outorder.window",
                    _alpha ? cbench::kCore : cbench::kOutorder);
            r = _inner->runWindow(program, start, warmup_insts,
                                  measure_insts, measured);
            // Warm-up plus measured instructions: the work the window
            // simulated in detail.
            s.work(_inner->statGroup().get("insts_committed"));
        }
        recordCounts();
        return r;
    }

    bool
    armInjection(const inject::StateInjection *injection,
                 Cycle cycle_budget) override
    {
        return _inner->armInjection(injection, cycle_budget);
    }
    std::string injectionNote() const override
    {
        return _inner->injectionNote();
    }
    bool architecturalState(Checkpoint *out) const override
    {
        return _inner->architecturalState(out);
    }
    stats::Group &statGroup() override { return _inner->statGroup(); }
    std::string name() const override { return _inner->name(); }

  private:
    /** Counters cover the whole last run (every unit resets at the
     *  start of run/runWindow), so they are summed as read. */
    void
    recordCounts()
    {
        stats::Group &g = _inner->statGroup();
        cbench::SimCounts c;
        if (!_alpha) {
            c.ruuInsts = g.get("insts_committed");
            Trace::addSimCounts(c);
            return;
        }
        c.alphaInsts = g.get("insts_committed");
        MemorySystem *mem = _alpha->memorySystem();
        if (mem) {
            c.l1iMisses = mem->icache().misses();
            c.l1dMisses = mem->dcache().misses();
            c.l2Misses = mem->l2cache().misses();
            c.dtlbMisses = mem->dtlb().misses();
            c.dramRowHits = mem->dram().rowHits();
            c.dramRowMisses = mem->dram().rowMisses();
        }
        c.directionMispredicts = g.get("direction_mispredicts");
        c.wayMispredicts = g.get("way_mispredicts");
        c.replayTraps = g.get("replay_traps");
        c.mapStalls = g.get("map_stalls");
        Trace::addSimCounts(c);
    }

    std::unique_ptr<Machine> _inner;
    AlphaCore *_alpha;
};

} // namespace

bool
wrap_buildWorkload(const std::string &name, Program *out,
                   std::string *error)
{
    Scope s("workloads.build", cbench::kWorkloads);
    return real_buildWorkload(name, out, error);
}

std::unique_ptr<Machine>
wrap_tryMakeMachine(const std::string &name, validate::Optimization opt,
                    std::string *error)
{
    if (!Trace::on())
        return real_tryMakeMachine(name, opt, error);
    std::unique_ptr<Machine> built;
    {
        Scope s("validate.make_machine", cbench::kValidate);
        built = real_tryMakeMachine(name, opt, error);
    }
    if (!built)
        return built;
    return std::make_unique<TracedMachine>(std::move(built));
}

checkpoint::FastForwardInfo
wrap_fastForward(const Program &program, std::uint64_t max_insts)
{
    Scope s("isa.ff", cbench::kIsa);
    checkpoint::FastForwardInfo info = real_fastForward(program, max_insts);
    s.work(info.totalInsts);
    return info;
}

/**
 * Traced collectCheckpoints: the same lookups, the same generated
 * states, and the same published bytes under the same keys, composed
 * from public calls so each step gets its own span. Generation runs
 * the real function without a store; a partial store hit therefore
 * regenerates from offset 0 instead of the nearest hit, which changes
 * the cost but not one checkpoint (they are pure functions of the
 * program). The benchmark's workloads hit all or none of a cell's
 * checkpoints.
 */
bool
wrap_collectCheckpoints(const Program &program,
                        const std::vector<std::uint64_t> &offsets,
                        store::ResultStore *store,
                        std::vector<Checkpoint> *out, std::string *error)
{
    if (!Trace::on())
        return real_collectCheckpoints(program, offsets, store, out, error);
    Scope collect("checkpoint.collect", cbench::kCheckpoint);
    namespace ck = checkpoint;
    const bool useStore = store && store->isOpen();

    std::vector<std::uint64_t> distinct = offsets;
    std::sort(distinct.begin(), distinct.end());
    distinct.erase(std::unique(distinct.begin(), distinct.end()),
                   distinct.end());

    std::map<std::uint64_t, Checkpoint> resolved;
    std::vector<std::uint64_t> missing;
    for (std::uint64_t offset : distinct) {
        std::string payload;
        bool hit = useStore &&
                   store->lookup(ck::checkpointKey(program, offset),
                                 &payload);
        if (hit) {
            Scope s("checkpoint.parse", cbench::kCheckpoint);
            Checkpoint c;
            std::string perror;
            hit = ck::parseCheckpoint(payload, &c, &perror) &&
                  c.seq == offset;
            s.work(payload.size());
            if (hit)
                resolved[offset] = std::move(c);
        }
        if (!hit)
            missing.push_back(offset);
    }

    if (!missing.empty()) {
        std::vector<Checkpoint> generated;
        {
            Scope s("checkpoint.generate", cbench::kCheckpoint);
            if (!real_collectCheckpoints(program, missing, nullptr,
                                         &generated, error))
                return false;
        }
        for (std::size_t i = 0; i < missing.size(); i++) {
            if (useStore) {
                std::string blob;
                {
                    Scope s("checkpoint.serialize", cbench::kCheckpoint);
                    blob = ck::serializeCheckpoint(generated[i]);
                    s.work(blob.size());
                }
                std::string serror;
                (void)store->publish(ck::checkpointKey(program, missing[i]),
                                     blob, &serror);
            }
            resolved[missing[i]] = std::move(generated[i]);
        }
    }

    out->clear();
    out->reserve(offsets.size());
    for (std::uint64_t offset : offsets)
        out->push_back(resolved[offset]);
    return true;
}

std::size_t
wrap_touchPlanned(const Program &program, std::uint64_t max_insts,
                  const checkpoint::SampleSpec &spec,
                  store::ResultStore *store)
{
    Scope s("checkpoint.touch", cbench::kCheckpoint);
    return real_touchPlanned(program, max_insts, spec, store);
}

bool
wrap_storeTouch(store::ResultStore *self, const std::string &key)
{
    Scope s("store.touch", cbench::kStore);
    return real_storeTouch(self, key);
}

bool
wrap_storeLookup(store::ResultStore *self, const std::string &key,
                 std::string *payload)
{
    Scope s("store.lookup", cbench::kStore);
    bool hit = real_storeLookup(self, key, payload);
    s.work(hit ? 1 : 0);
    return hit;
}

bool
wrap_storePublish(store::ResultStore *self, const std::string &key,
                  const std::string &payload, std::string *error)
{
    Scope s("store.publish", cbench::kStore);
    s.work(payload.size());
    return real_storePublish(self, key, payload, error);
}

void
wrap_storeDtor(store::ResultStore *self)
{
    // A handle's traffic counters die with it: fold them into the pass
    // (index hits and entry parses are visible nowhere else).
    if (Trace::on() && self->isOpen())
        Trace::addStoreCounters(self->counters());
    real_storeDtor(self);
}

runner::CampaignResult
wrap_runnerRun(runner::ExperimentRunner *self,
               const runner::CampaignSpec &spec)
{
    if (!Trace::on())
        return real_runnerRun(self, spec);
    // A fleet worker's runner is recognized by its store root; its span
    // hangs under the dispatcher's shard submit for that worker.
    const int lane = Trace::laneOfStore(self->options().storePath);
    const int outerLane = Trace::threadLane();
    Trace::setThreadLane(lane);
    Trace::clearCell();
    runner::CampaignResult result;
    {
        Scope s("runner.run", cbench::kRunner,
                lane >= 0 ? Trace::openShard(lane) : -1);
        result = real_runnerRun(self, spec);
    }
    Trace::setThreadLane(outerLane);
    return result;
}

void
wrap_journalAppend(runner::CampaignJournal *self,
                   const std::string &campaign,
                   const runner::CellResult &result)
{
    cbench::probePoint();
    Scope s("runner.journal", cbench::kRunner);
    real_journalAppend(self, campaign, result);
}

std::uint64_t
wrap_cellSeed(const runner::Cell &cell)
{
    if (Trace::on())
        Trace::noteCell(cell);
    return real_cellSeed(cell);
}

serve::SubmitOutcome
wrap_submitCampaign(const serve::ClientOptions &options,
                    const std::string &campaign, std::uint64_t max_insts,
                    const std::string &sample, bool results_only,
                    const std::function<void(const std::string &)> &on_line)
{
    auto forward = [&] {
        return real_submitCampaign(options, campaign, max_insts, sample,
                                   results_only, on_line);
    };
    if (!Trace::on())
        return forward();
    if (Trace::isFront(options.connect)) {
        Scope s("fleet.submit", cbench::kFleet);
        Trace::setOpenFront(s.id());
        serve::SubmitOutcome o = forward();
        Trace::setOpenFront(-1);
        return o;
    }
    const int lane = Trace::laneOfAddress(options.connect);
    if (lane < 0)
        return forward();
    // One shard's round trip through a worker daemon: its self time is
    // the serve layer (socket, job journal, streaming) around the
    // worker's runner span.
    Scope s("serve.shard", cbench::kServe, Trace::openFront());
    Trace::setOpenShard(lane, s.id());
    serve::SubmitOutcome o = forward();
    Trace::setOpenShard(lane, -1);
    return o;
}
