/**
 * @file
 * AlphaCore: the detailed Alpha 21264 timing model — the paper's primary
 * artifact. One class models the golden reference, sim-alpha,
 * sim-initial, sim-stripped, and every Table-4 ablation, selected purely
 * through AlphaCoreParams switches.
 *
 * The model is execute-at-fetch: a functional emulator (the oracle)
 * steps along the correct path as instructions are fetched; mispredicted
 * control flow sends fetch down the wrong path, where instructions are
 * decoded from the static image and occupy front-end and execution
 * resources until recovery squashes them. Replay traps rewind the oracle
 * and refetch architecturally executed instructions.
 */

#ifndef SIMALPHA_CORE_CORE_HH
#define SIMALPHA_CORE_CORE_HH

#include <algorithm>
#include <memory>
#include <optional>
#include <ranges>
#include <vector>

#include "common/error.hh"
#include "common/ring.hh"
#include "core/fu_pool.hh"
#include "inject/inject.hh"
#include "core/issue_queue.hh"
#include "core/oracle.hh"
#include "core/params.hh"
#include "core/rename.hh"
#include "core/slot_set.hh"
#include "isa/machine.hh"
#include "memory/hierarchy.hh"
#include "predictors/branch.hh"
#include "predictors/frontend.hh"

namespace simalpha {

class AlphaCore : public Machine
{
  public:
    explicit AlphaCore(const AlphaCoreParams &params);

    RunResult run(const Program &program,
                  std::uint64_t max_insts = 0) override;

    RunResult runWindow(const Program &program, const Checkpoint &start,
                        std::uint64_t warmup_insts,
                        std::uint64_t measure_insts,
                        std::map<std::string, std::uint64_t>
                            *measured_counters = nullptr) override;

    stats::Group &statGroup() override { return _stats; }
    std::string name() const override { return _p.name; }

    bool armInjection(const inject::StateInjection *injection,
                      Cycle cycle_budget) override;
    std::string injectionNote() const override { return _injectNote; }
    bool architecturalState(Checkpoint *out) const override;

    const AlphaCoreParams &params() const { return _p; }

    /** The memory system of the last/current run (for inspection). */
    MemorySystem *memorySystem() { return _mem.get(); }

  private:
    // ---- Per-run machine state --------------------------------------
    struct Recovery
    {
        enum class Kind { BranchMispredict, Trap, LineMisfire };
        Kind kind;
        InstSeq seq;            ///< dynamic seq of the causing inst
        Cycle atCycle;
        Addr resumePc;
        bool indirect = false;  ///< jump-style flush (longer restart)
        bool markStoreWait = false;
        Addr storeWaitPc = 0;
    };

    /** An outstanding load-use speculation awaiting verification. */
    struct LoadUseCheck
    {
        InstSeq loadSeq;
        Cycle verifyAt;
        Cycle missDone;
        PhysReg loadDst;
        Cycle windowStart;
    };

    /** Reset every unit and build the oracle: at the program's entry,
     *  or resuming at @p start (runWindow). */
    void resetMachine(const Program &program,
                      const Checkpoint *start = nullptr);
    /** The run loop shared by run() and runWindow(): tick until halt
     *  or _maxInsts commits, with the forward-progress watchdog. */
    void runLoop(const Program &program);
    void cycleTick();
    /** Apply the armed bit flip at its strike cycle (core_inject.cc). */
    void applyInjection();
    /** Machine-state snapshot for the forward-progress watchdog. */
    DeadlockInfo deadlockSnapshot(const Program &program) const;

    // Pipeline stages (called youngest-stage-last each cycle).
    void doRetire();
    void doVerify();        ///< load-use checks + pending recovery
    void doIssue();
    void doMap();
    void doFetch();

    // Fetch helpers.
    void fetchCorrectPath();
    void fetchWrongPath();
    Cycle icacheTiming(Addr pc, Cycle now);
    /** Direction/target prediction for a control instruction at fetch.
     *  @return the front end's next fetch PC if the packet cuts here */
    Addr predictControl(DynInst &di, Addr lp_next);
    /** Append a fresh instruction at the fetch queue's tail: the
     *  packet under assembly is built in place. */
    DynInst &fetchSlot(Cycle fetch_done);

    // Issue helpers.
    void performIssue(DynInst &inst, int cluster);
    /** Store-wait gate of a correct-path load (table enabled). */
    bool storeWaitClear(const DynInst &ld);
    /** The original ROB walk behind the store-wait gate: an older
     *  store has not resolved its address (slowpath reference). */
    bool olderStoreUnresolved(const DynInst &ld) const;
    Cycle operandReadyCycle(const DynInst &inst, int cluster) const;
    void issueLoad(DynInst &inst);
    void issueStore(DynInst &inst);
    void scheduleRecovery(const Recovery &rec);

    // ---- Issue select (DESIGN.md section 5.9) -----------------------
    /** An entry whose operands reach a cluster at a known cycle beyond
     *  the timing wheel: its ready bit is set when the cycle comes. */
    struct PendingReady
    {
        Cycle at;
        InstSeq seq;            ///< the entry's, to skip a stale item
        std::uint32_t slot;
        std::uint8_t cluster;
        bool operator>(const PendingReady &o) const { return at > o.at; }
    };

    /** @p inst's per-cluster issue cycles from the scoreboard, into
     *  @p at. @p q: 0 int, 1 fp queue. @return a pending source
     *  (both cycles kNoCycle), or kNoPhys. */
    PhysReg computeIssueCycles(const DynInst &inst, int q,
                               Cycle at[2]) const;
    /** Place unissued queue-@p q entry @p inst in the select state:
     *  set its ready bits for the clusters its operands reach by now,
     *  list it for later ones, or park it on a pending source's
     *  wake-up list. */
    void evaluate(DynInst &inst, int q);
    /** Set the ready bits of every entry whose cycle has come. */
    void
    drainPending()
    {
        if (_drainedTo < _cycle)
            drainWheel();
        for (int q = 0; q < 2; q++)
            if (!_pending[q].empty() && _pending[q].front().at <= _cycle)
                drainPending(q);
    }
    void drainWheel();
    void drainPending(int q);
    /** Slowpath: the ready sets equal a full recomputation, and the
     *  unresolved-store record a ROB walk. */
    void verifySelectState() const;
    /** Oldest entry for @p pipe: the first of its queue's ready set on
     *  its cluster and its fit set that passes store-wait; counts
     *  store-wait consults. */
    DynInst *selectFor(int pipe, int *consults);
    /** The original per-pipe queue scan, side-effect free: the
     *  SIMALPHA_SLOWPATH=1 reference each selectFor must match. */
    DynInst *referenceScan(int pipe, int *consults) const;
    /** Scoreboard a result: evaluates the entries parked on @p dst, or
     *  rebuilds the select state if the write was not the pending ->
     *  scheduled transition the select state assumes. */
    void scheduleResult(PhysReg dst, Cycle ready, int cluster);
    /** Rebuild the ready sets, the pending lists and the wake-up lists
     *  from the queues. */
    void invalidateSelect();

    // ---- Event-driven wakeup (perf only; cycle-exact semantics) -----
    /** Earliest possible issue from queue @p q after a fruitless
     *  select: _cycle + 1 while an entry is ready (it lost arbitration
     *  or store-wait), else the earliest listed cycle. */
    Cycle wakeAfterSelect(int q);
    /** A register acquired a scheduled ready time: cap both queues'
     *  wake-up cycles (over-early is safe, over-late never happens). */
    void
    noteSetReady(Cycle ready)
    {
        _intWakeAt = std::min(_intWakeAt, ready);
        _fpWakeAt = std::min(_fpWakeAt, ready);
    }
    /** Earliest cycle the map stage could act (kNoCycle if blocked on
     *  a condition that another tracked event must clear first). */
    Cycle mapEventCycle() const;
    /** Earliest cycle the fetch stage could act (same convention). */
    Cycle fetchEventCycle() const;
    Cycle nextEventCycle() const;
    /** Target cycle for an idle fast-forward jump; 0 if the coming
     *  cycle may be active (or the jump would not skip anything). */
    Cycle fastForwardTarget() const;

    // Address-indexed views of issued correct-path memory ops in the
    // ROB (replacing the per-issue full ROB scans).
    struct IssuedMemRef
    {
        InstSeq seq;
        Addr addr;
        int bytes;
        Addr pc;
    };
    static void addIssuedRef(std::vector<IssuedMemRef> &index,
                             const DynInst &inst);
    static void removeIssuedRef(std::vector<IssuedMemRef> &index,
                                InstSeq seq);
    bool storeForwardLookup(const DynInst &ld) const;
    const IssuedMemRef *youngestConflictingLoad(const DynInst &ld) const;
    const IssuedMemRef *oldestConflictingLoad(const DynInst &st) const;

    // Squash machinery.
    void squashFrom(InstSeq seq, bool refetch_inclusive);
    void unissueForReplay(const LoadUseCheck &check);

    InstSeq nextSeq() { return _seqCounter++; }

    /** The ROB: the ring's first _robSize entries. */
    auto
    rob()
    {
        return std::ranges::subrange(_ring.begin(),
                                     _ring.begin() + std::ptrdiff_t(_robSize));
    }
    auto
    rob() const
    {
        return std::ranges::subrange(_ring.begin(),
                                     _ring.begin() + std::ptrdiff_t(_robSize));
    }
    std::size_t fetchQueueSize() const { return _ring.size() - _robSize; }

    // ---- Configuration ----------------------------------------------
    AlphaCoreParams _p;
    stats::Group _stats;

    /** Hot-path counters resolved once at construction; the
     *  string-keyed registry in _stats stays for dumps and snapshots
     *  only, never on a per-event path. */
    struct BoundCounters
    {
        explicit BoundCounters(stats::Group &g);
        stats::Counter &cycles;
        stats::Counter &instsCommitted;
        stats::Counter &branchesRetired;
        stats::Counter &mispredictsRetired;
        stats::Counter &jumpMispredicts;
        stats::Counter &branchMispredicts;
        stats::Counter &replayTraps;
        stats::Counter &instsSquashed;
        stats::Counter &instsIssued;
        stats::Counter &storeForwards;
        stats::Counter &loadOrderTraps;
        stats::Counter &mboxExtraTraps;
        stats::Counter &storeReplayTraps;
        stats::Counter &loadUseReplays;
        stats::Counter &loadUseViolations;
        stats::Counter &mapStalls;
        stats::Counter &unopsRemoved;
        stats::Counter &instsMapped;
        stats::Counter &wayMispredicts;
        stats::Counter &icacheMissStalls;
        stats::Counter &fetchPackets;
        stats::Counter &directionMispredicts;
        stats::Counter &targetMispredicts;
        stats::Counter &slotMisses;
        stats::Counter &lineMisfires;
        stats::Counter &wrongPathPackets;
    };
    BoundCounters _c;

    // ---- Run state ---------------------------------------------------
    const Program *_prog = nullptr;
    std::unique_ptr<OracleStream> _oracle;
    std::unique_ptr<MemorySystem> _mem;
    std::unique_ptr<RenameUnit> _rename;
    std::unique_ptr<Scoreboard> _scoreboard;
    std::unique_ptr<FuPool> _fuPool;
    std::unique_ptr<TournamentPredictor> _branchPred;
    std::unique_ptr<LinePredictor> _linePred;
    std::unique_ptr<WayPredictor> _wayPred;
    std::unique_ptr<ReturnAddressStack> _ras;
    std::unique_ptr<LoadUsePredictor> _loadUsePred;
    std::unique_ptr<StoreWaitPredictor> _storeWait;
    std::unique_ptr<IssueQueue> _intIq;
    std::unique_ptr<IssueQueue> _fpIq;

    Cycle _cycle = 0;
    InstSeq _seqCounter = 0;
    std::uint64_t _committed = 0;
    std::uint64_t _maxInsts = 0;
    bool _finished = false;

    Addr _fetchPc = 0;
    Cycle _fetchResumeAt = 0;
    bool _wrongPathMode = false;
    bool _haltFetched = false;
    Cycle _mapBlockedUntil = 0;
    int _lqUsed = 0;
    int _sqUsed = 0;
    Cycle _lastCommitCycle = 0;

    /** Every in-flight instruction from fetch to retire, oldest first:
     *  the ROB is the first _robSize entries and the fetch queue the
     *  rest, so map only moves the boundary. Sized for robEntries +
     *  fetchQueueEntries and never grows: the issue queues, the select
     *  state and the wake-up lists name its entries. */
    Ring<DynInst> _ring;
    std::size_t _robSize = 0;
    std::optional<Recovery> _recovery;
    std::vector<LoadUseCheck> _loadUseChecks;

    // ---- Event-driven wakeup state (bookkeeping only — every value
    // is a lower bound on when something can happen, so the worst
    // case of a stale value is a wasted scan, never a changed
    // simulation outcome) ---------------------------------------------
    Cycle _intWakeAt = 0;        ///< earliest possible int-queue issue
    Cycle _fpWakeAt = 0;         ///< earliest possible fp-queue issue
    Cycle _nextLoadUseVerify = kNoCycle; ///< min pending verifyAt
    std::vector<IssuedMemRef> _issuedStores; ///< seq-sorted, issued
    std::vector<IssuedMemRef> _issuedLoads;  ///< seq-sorted, issued

    // ---- Issue-select state (derived; rebuilt by invalidateSelect
    // and every cycle after a strike) -----------------------------------
    /** Per queue and cluster (the fp queue uses [1][0] only): the
     *  unissued entries whose operands reach that cluster by now. */
    SlotSet _ready[2][2];
    /** The same for entries whose operands arrive within kWheel - 1
     *  cycles of _drainedTo, by arrival cycle mod kWheel: a timing
     *  wheel, drained into _ready as the cycles come. An issuing entry
     *  leaves it through DynInst::wheelBucket. Later arrivals (misses,
     *  long divides) go to _pending. */
    static constexpr Cycle kWheel = 16;
    SlotSet _wheel[kWheel][2][2];
    /** Per queue: bit b set if wheel bucket b may be non-empty. */
    std::uint16_t _wheelUsed[2] = {};
    static_assert(kWheel == 16, "_wheelUsed holds one bit per bucket");
    Cycle _drainedTo = 0;     ///< wheel buckets up to here are drained
    /** Per pipe: the queue entries whose fit mask admits it. */
    SlotSet _fits[8];
    /** Per pipe: its queue, and the ready set it draws from. */
    std::uint8_t _pipeQueue[8] = {};
    const SlotSet *_pipeReady[8] = {};
    /** Per queue: the pipes it issues to. */
    std::uint8_t _queuePipes[2] = {};
    /** Per queue: a min-heap of entries ready beyond the wheel. */
    std::vector<PendingReady> _pending[2];
    /** False once a flip has struck: the select state is then rebuilt
     *  every cycle, since corrupted rename state can re-pend a
     *  register that a listed consumer already counted as ready. */
    bool _cacheReadiness = true;
    std::vector<DynInst *> _waiters;    ///< per phys reg: parked list
    /** Seq-sorted correct-path stores in the ROB whose address is
     *  unresolved (!memIssued): the store-wait gate's record. */
    std::vector<InstSeq> _unresolvedStores;
    /** SIMALPHA_SLOWPATH=1: run the original scans, maintain the fast
     *  bookkeeping alongside, and assert they agree. */
    bool _slowpath = false;
    Cycle _ffCheckUntil = 0;     ///< slowpath: predicted-idle window end
    bool _activity = false;      ///< slowpath: stage acted this cycle

    /** Outstanding load misses (for the golden extra-trap conditions). */
    struct OutstandingMiss
    {
        Addr block;
        std::size_t set;
        Cycle done;
    };
    std::vector<OutstandingMiss> _outstandingMisses;

    // ---- State injection (inert unless armed) ------------------------
    inject::StateInjection _inject;  ///< armed spec (None = disarmed)
    Cycle _injectBudget = 0;         ///< cycle cap on injected runs
    /** True while armed and the flip has not struck yet: the single
     *  flag the per-cycle poll reads, so disarmed runs pay one
     *  predicted-not-taken branch per tick. */
    bool _injectPending = false;
    std::string _injectNote;         ///< what the last strike hit
};

} // namespace simalpha

#endif // SIMALPHA_CORE_CORE_HH
