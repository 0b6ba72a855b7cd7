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
#include "core/issue_queue.hh"
#include "core/params.hh"
#include "core/rename.hh"
#include "core/slot_set.hh"
#include "core/timed_core.hh"
#include "predictors/frontend.hh"

namespace simalpha {

class AlphaCore : public TimedCore
{
  public:
    explicit AlphaCore(const AlphaCoreParams &params);

    std::string name() const override { return _p.name; }

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

    void resetMachine() override;
    void runLoop(const Program &program) override;
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
    /** @p inst's per-cluster issue cycles from the scoreboard, into
     *  @p at. @p q: 0 int, 1 fp queue. @return a pending source
     *  (both cycles kNoCycle), or kNoPhys. */
    PhysReg computeIssueCycles(const DynInst &inst, int q,
                               Cycle at[2]) const;
    /** Place unissued queue-@p q entry @p inst in the select state:
     *  on its queue's wheel for each cluster its operands reach, or
     *  parked on a pending source's wake-up list. */
    void evaluate(DynInst &inst, int q);
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

    /** Hot-path counters resolved once at construction; the
     *  string-keyed registry in _stats stays for dumps and snapshots
     *  only, never on a per-event path. */
    struct BoundCounters
    {
        explicit BoundCounters(stats::Group &g);
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
    std::unique_ptr<RenameUnit> _rename;
    std::unique_ptr<Scoreboard> _scoreboard;
    std::unique_ptr<FuPool> _fuPool;
    std::unique_ptr<LinePredictor> _linePred;
    std::unique_ptr<WayPredictor> _wayPred;
    std::unique_ptr<ReturnAddressStack> _ras;
    std::unique_ptr<LoadUsePredictor> _loadUsePred;
    std::unique_ptr<StoreWaitPredictor> _storeWait;
    std::unique_ptr<IssueQueue> _intIq;
    std::unique_ptr<IssueQueue> _fpIq;

    Cycle _mapBlockedUntil = 0;
    int _lqUsed = 0;
    int _sqUsed = 0;

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
    /** Per queue (0 int, 1 fp): when its unissued entries' operands
     *  reach each cluster, one lane per cluster (the fp queue uses
     *  lane 0 only). An issuing entry leaves it through
     *  DynInst::wheelBucket. */
    ReadyWheel<2> _wheel[2];
    /** Per pipe: the queue entries whose fit mask admits it. */
    SlotSet _fits[8];
    /** Per pipe: its queue, and the ready set it draws from. */
    std::uint8_t _pipeQueue[8] = {};
    const SlotSet *_pipeReady[8] = {};
    /** Per queue: the pipes it issues to. */
    std::uint8_t _queuePipes[2] = {};
    /** False once a flip has struck: the select state is then rebuilt
     *  every cycle, since corrupted rename state can re-pend a
     *  register that a listed consumer already counted as ready. */
    bool _cacheReadiness = true;
    std::vector<DynInst *> _waiters;    ///< per phys reg: parked list
    /** Seq-sorted correct-path stores in the ROB whose address is
     *  unresolved (!memIssued): the store-wait gate's record. */
    std::vector<InstSeq> _unresolvedStores;

    /** Outstanding load misses (for the golden extra-trap conditions). */
    struct OutstandingMiss
    {
        Addr block;
        std::size_t set;
        Cycle done;
    };
    std::vector<OutstandingMiss> _outstandingMisses;
};

} // namespace simalpha

#endif // SIMALPHA_CORE_CORE_HH
