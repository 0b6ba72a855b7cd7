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

#include <memory>
#include <optional>
#include <vector>

#include "common/error.hh"
#include "common/ring.hh"
#include "core/fu_pool.hh"
#include "inject/inject.hh"
#include "core/issue_queue.hh"
#include "core/oracle.hh"
#include "core/params.hh"
#include "core/rename.hh"
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

    void resetMachine(const Program &program);
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
    /** An entry that could take a pipe this cycle, and which pipes. */
    struct Candidate
    {
        DynInst *inst;
        std::uint8_t pipes;
    };
    /** @p inst's per-cluster issue cycles from the scoreboard, into
     *  @p at. @p q: 0 int, 1 fp queue. @return a pending source
     *  (both cycles kNoCycle), or kNoPhys. */
    PhysReg computeIssueCycles(const DynInst &inst, int q,
                               Cycle at[2]) const;
    /** computeIssueCycles, cached until an event invalidates it; an
     *  entry with a pending source parks on its wake-up list. */
    const Cycle *
    issueCycles(DynInst &inst, int q)
    {
        if (_cacheReadiness && inst.readyEpoch == _selectEpoch)
            return inst.issueAt;
        return refreshIssueCycles(inst, q);
    }
    const Cycle *refreshIssueCycles(DynInst &inst, int q);
    /** Slowpath: every cached readiness and the unresolved-store
     *  record equal a full recomputation. */
    void verifySelectState() const;
    /** Collect queue @p q's candidates for the @p free pipes. */
    void gatherCandidates(int q, std::uint8_t free);
    /** Oldest candidate for @p pipe; counts store-wait consults. */
    DynInst *selectFor(int pipe, int *consults);
    /** The original per-pipe queue scan, side-effect free: the
     *  SIMALPHA_SLOWPATH=1 reference each selectFor must match. */
    DynInst *referenceScan(int pipe, int *consults) const;
    /** Scoreboard a result: wakes the entries parked on @p dst, or
     *  invalidates every cached readiness if the write was not the
     *  pending -> scheduled transition the cache assumes. */
    void scheduleResult(PhysReg dst, Cycle ready, int cluster);
    /** Drop every cached readiness and wake-up list. */
    void invalidateSelect();

    // ---- Event-driven wakeup (perf only; cycle-exact semantics) -----
    /** Earliest possible issue from queue @p q; _cycle + 1 if an
     *  entry is blocked only by per-cycle arbitration. */
    Cycle recomputeWakeAt(int q);
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

    Ring<DynInst> _fetchQueue;
    /** Sized for robEntries and never grows: the issue queues, the
     *  select candidates and the wake-up lists point into it. */
    Ring<DynInst> _rob;
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
    // and after every strike) ------------------------------------------
    std::vector<Candidate> _cands[2];   ///< this cycle's, per queue
    std::uint64_t _selectEpoch = 1;     ///< matches current caches
    /** False once a flip has struck: readiness is then re-evaluated
     *  every cycle, since corrupted rename state can re-pend a
     *  register that a cached consumer already counted as ready. */
    bool _cacheReadiness = true;
    std::vector<DynInst *> _waiters;    ///< per phys reg: parked list
    /** Seq-sorted correct-path stores in the ROB whose address is
     *  unresolved (!memIssued): the store-wait gate's record. */
    std::vector<InstSeq> _unresolvedStores;
    /** Pipes whose operand readiness is judged on cluster 0 / 1
     *  (the fp pipes read cluster 0). */
    std::uint8_t _clusterPipes[2] = {};
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
