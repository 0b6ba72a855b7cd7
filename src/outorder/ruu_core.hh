/**
 * @file
 * RuuCore: the abstract out-of-order comparator, modeled after
 * SimpleScalar 3.0b's sim-outorder.
 *
 * A five-stage machine (fetch, dispatch, issue, writeback, commit) built
 * around the Register Update Unit [Sohi], which combines the physical
 * register file, reorder buffer and issue window in a single structure.
 * There is no clustering, no slotting, no line/way prediction, no replay
 * traps, and no cycle-time constraint on the front end — exactly the
 * abstractions the paper shows make such simulators optimistic by about
 * a third.
 */

#ifndef SIMALPHA_OUTORDER_RUU_CORE_HH
#define SIMALPHA_OUTORDER_RUU_CORE_HH

#include <memory>
#include <optional>
#include <unordered_map>

#include "common/ring.hh"
#include "core/slot_set.hh"
#include "core/timed_core.hh"

namespace simalpha {

struct RuuCoreParams
{
    std::string name = "sim-outorder";
    int fetchWidth = 4;
    int decodeWidth = 4;
    int issueWidth = 4;
    int commitWidth = 4;
    int ruuEntries = 64;
    int lsqEntries = 64;
    /** Extra front-end refill cycles after a branch mispredict (the
     *  shallow SimpleScalar pipe: 3 total with fetch depth). */
    int mispredictExtra = 1;
    int fetchToDispatch = 1;

    // Functional units (generic resources).
    int intAlus = 4;
    int intMuls = 1;
    int fpAddUnits = 1;     ///< matched to the 21264's fp add pipe
    int fpMulUnits = 1;
    int memPorts = 2;

    /** Register-file / bypass study knobs (Figure 2). */
    int regreadCycles = 1;
    bool fullBypass = true;

    /**
     * Optional separate physical register file [Agarwal et al.]: when
     * nonzero, dispatch stalls once this many results are in flight.
     */
    int physRegs = 0;

    MemorySystemParams mem;

    /**
     * Forward-progress watchdog: if no instruction commits for this many
     * cycles the run throws DeadlockError with a machine-state snapshot
     * (0 = disabled). Diagnostic only — excluded from the manifest.
     */
    Cycle watchdogCycles = 100000;

    /** The paper's sim-outorder configuration matched to the 21264. */
    static RuuCoreParams simOutorder();
};

class RuuCore : public TimedCore
{
  public:
    explicit RuuCore(const RuuCoreParams &params);

    std::string name() const override { return _p.name; }

  private:
    /**
     * Position id of an RUU entry: the head entry's id is _ruuHeadPos
     * and ids run contiguously to the tail. Commit advances the head;
     * recovery pops the tail, so the next dispatch reuses the ids of
     * the squashed entries. An id below the head names a committed
     * entry.
     */
    using RuuPos = std::uint64_t;
    static constexpr RuuPos kNoPos = ~RuuPos(0);
    static constexpr std::uint16_t kNoSlot = 0xffff;

    struct RuuInst
    {
        // The issue scan's fields come first, in one cache line.
        InstSeq seq = 0;
        bool wrongPath = false;
        bool dispatched = false;
        bool issued = false;
        bool completed = false;
        bool taken = false;
        bool halt = false;
        bool mispredicted = false;
        bool hasBpSnap = false;
        /** Program::decoded() record (the unop record off-text). */
        const DecodedInst *dec = nullptr;
        Cycle dispatchCycle = kNoCycle;
        Cycle doneCycle = kNoCycle;
        /** The in-flight producer of each source (below) as an RUU
         *  position id (kNoPos = none). */
        RuuPos producerPos[3] = {kNoPos, kNoPos, kNoPos};
        /** Ready-set select: the first entry parked on this one's
         *  result, and the next entry parked on the same producer as
         *  this one (ring slots, kNoSlot = none). */
        std::uint16_t firstWaiter = kNoSlot;
        std::uint16_t nextWaiter = kNoSlot;
        /** The timing-wheel bucket the entry was placed in. */
        std::uint8_t wheelBucket = kNoBucket;

        Cycle issueCycle = kNoCycle;
        Cycle readyForDispatch = 0;
        InstSeq oracleSeq = 0;
        Addr pc = 0;
        Addr nextPc = 0;
        Addr effAddr = kNoAddr;
        /** In-flight producer of each source, captured at dispatch
         *  (kNoCycle = value already architecturally available); the
         *  slowpath reference searches the RUU for these seqs. */
        InstSeq producers[3] = {kNoCycle, kNoCycle, kNoCycle};
        /** Correct-path loads: the youngest older correct-path store
         *  to the same word at dispatch (kNoPos = none). */
        RuuPos forwardPos = kNoPos;
        BranchSnapshot bpSnap;      ///< predictor history snapshot
    };

    void resetMachine() override;
    void runLoop(const Program &program) override;
    /** Apply the armed bit flip at its strike cycle (ruu_inject.cc). */
    void applyInjection();
    /** Machine-state snapshot for the forward-progress watchdog. */
    DeadlockInfo deadlockSnapshot(const Program &program) const;
    void doCommit();
    void doRecovery();
    void doIssue();
    void doDispatch();
    void doFetch();

    /** Functional units taken in the cycle being selected. */
    struct FuUse
    {
        int alu = 0;
        int mul = 0;
        int fpAdd = 0;
        int fpMul = 0;
        int mem = 0;
    };
    /** Take a unit for @p cls from @p use if one is left. */
    bool takeFu(OpClass cls, FuUse &use) const;
    /** The RUU indexes that issue this cycle, oldest first: each ready
     *  entry while issue width and a unit of its class are left. From
     *  the ready set, or by walking every unissued entry (after a
     *  strike, and as the SIMALPHA_SLOWPATH=1 reference). */
    void selectReady(std::vector<std::size_t> &out) const;
    void selectByWalk(std::vector<std::size_t> &out) const;
    /** Issue @p inst: schedule its result and wake its waiters. */
    void performIssue(RuuInst &inst);
    /** The cycle @p inst's sources are ready (0: no producer in
     *  flight), or kNoCycle while a producer has not issued; then
     *  @p pending, when given, receives that producer's position. */
    Cycle srcReady(const RuuInst &inst, RuuPos *pending = nullptr) const;
    /** srcReady by a seq search of the RUU for every source: the
     *  SIMALPHA_SLOWPATH=1 reference for the position ids. */
    Cycle srcReadyBySeq(const RuuInst &inst) const;
    /** Position id of the RUU entry with @p seq (kNoPos if none);
     *  @p hint is checked first. */
    RuuPos positionOf(InstSeq seq, RuuPos hint) const;
    /** Dispatch-time store-forwarding bookkeeping for @p inst, the
     *  entry at @p pos: a load records its forwarding store, a store
     *  becomes its word's youngest. */
    void indexMemOp(RuuInst &inst, RuuPos pos);
    /** Rebuild _storeByWord and every load's forwardPos from the RUU
     *  (after a flip that may have moved an address). */
    void rebuildStoreIndex();
    /** Slowpath: the store index equals a rebuild from the RUU. */
    void verifyStoreIndex() const;
    /** RUU index where the issue scan starts (see _issuedBefore). */
    std::size_t
    firstUnissued() const
    {
        return _issuedBefore > _ruuHeadPos
                   ? std::size_t(_issuedBefore - _ruuHeadPos)
                   : 0;
    }

    // ---- Event-driven wakeup (perf only; cycle-exact semantics) -----
    /** Earliest cycle @p inst could pass the issue gates (kNoCycle if
     *  unissuable: already issued, or a producer not yet scheduled). */
    Cycle issueEntryLB(const RuuInst &inst) const;
    /** Exact refresh of the issue wake-up bound; _cycle + 1 when an
     *  entry is blocked only by FU/width arbitration. */
    Cycle recomputeIssueWake() const;

    // ---- Ready-set select (DESIGN.md section 5.9) ---------------------
    /** Place dispatched entry @p inst in the select state: on the
     *  wheel by the cycle its sources are ready, or on the wake-up
     *  list of a producer not yet issued. */
    void evaluate(RuuInst &inst);
    /** Slowpath: the ready set equals a recompute from the RUU. */
    void verifyReadySet() const;
    /** Earliest cycle dispatch could act (kNoCycle while blocked on a
     *  condition another tracked event must clear). */
    Cycle dispatchEventCycle() const;
    Cycle fetchEventCycle() const;
    /** Target for an idle fast-forward jump; 0 if the coming cycle
     *  may be active. */
    Cycle fastForwardTarget() const;

    RuuCoreParams _p;

    /** Hot-path counters resolved once at construction (the string
     *  map in _stats is for dumps/snapshots only). */
    struct BoundCounters
    {
        explicit BoundCounters(stats::Group &g);
        stats::Counter &branchMispredicts;
        stats::Counter &instsIssued;
        stats::Counter &storeForwards;
        stats::Counter &instsDispatched;
    };
    BoundCounters _c;

    std::unique_ptr<Btb> _btb;
    std::unique_ptr<ReturnAddressStack> _ras;

    /** Youngest in-flight writer of each architectural register
     *  (kNoCycle = none); consumers capture their producer at
     *  dispatch. */
    std::vector<InstSeq> _regWriter;
    /** Position id of each _regWriter entry when it was recorded: a
     *  hint that a flipped _regWriter simply misses. */
    std::vector<RuuPos> _regWriterPos;

    Ring<RuuInst> _fetchBuf;
    Ring<RuuInst> _ruu;
    RuuPos _ruuHeadPos = 0;     ///< position id of _ruu.front()
    /** Every entry below this position id has issued (RUU entries
     *  issue once; only a flip un-issues one, and a strike resets
     *  this to the head). The walk starts here; it is kept only while
     *  the walk runs. */
    RuuPos _issuedBefore = 0;
    /** Youngest in-flight correct-path store to each word address. */
    std::unordered_map<Addr, RuuPos> _storeByWord;

    struct PendingRecovery
    {
        InstSeq seq;
        Cycle atCycle;
        Addr resumePc;
    };
    std::optional<PendingRecovery> _recovery;

    // ---- Event-driven wakeup state (lower bounds only: a stale
    // value costs a wasted scan, never a changed outcome) -------------
    /** Memory ops resident in the RUU (incremental replacement for
     *  the per-dispatch LSQ occupancy scan). */
    int _lsqUsed = 0;
    /** Correct-path results in flight (replaces the per-dispatch
     *  physical-register pressure scan). */
    int _inflightDst = 0;
    Cycle _issueWakeAt = 0;     ///< earliest possible issue

    // ---- Ready-set select state (derived; abandoned after a strike) --
    /** Issue from the ready set. False after a strike, which may flip
     *  an issued flag, a done cycle or a producer the state was built
     *  from, so the walk decides for the rest of the run; also false
     *  for an RUU over SlotSet::kMaxSlots slots. */
    bool _selectByReadySet = true;
    /** When the unissued entries' sources are ready (one lane). */
    ReadyWheel<1> _wheel;
    std::vector<std::size_t> _winners;     ///< this cycle's, oldest first
};

} // namespace simalpha

#endif // SIMALPHA_OUTORDER_RUU_CORE_HH
