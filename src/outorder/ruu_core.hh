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

#include "common/error.hh"
#include "common/ring.hh"
#include "core/oracle.hh"
#include "inject/inject.hh"
#include "isa/machine.hh"
#include "memory/hierarchy.hh"
#include "predictors/branch.hh"

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

class RuuCore : public Machine
{
  public:
    explicit RuuCore(const RuuCoreParams &params);

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

    struct RuuInst
    {
        InstSeq seq = 0;
        InstSeq oracleSeq = 0;
        Addr pc = 0;
        Instruction inst;
        bool wrongPath = false;
        Addr nextPc = 0;
        bool taken = false;
        Addr effAddr = kNoAddr;
        bool halt = false;

        bool predTaken = false;
        bool mispredicted = false;
        bool hasBpSnap = false;
        BranchSnapshot bpSnap;      ///< predictor history snapshot

        Cycle readyForDispatch = 0;
        Cycle dispatchCycle = kNoCycle;
        Cycle issueCycle = kNoCycle;
        Cycle doneCycle = kNoCycle;
        bool dispatched = false;
        bool issued = false;
        bool completed = false;

        RegIndex srcs[3] = {kNoReg, kNoReg, kNoReg};
        /** In-flight producer of each source, captured at dispatch
         *  (kNoCycle = value already architecturally available); the
         *  slowpath reference searches the RUU for these seqs. */
        InstSeq producers[3] = {kNoCycle, kNoCycle, kNoCycle};
        /** The same producers as RUU position ids (kNoPos = none). */
        RuuPos producerPos[3] = {kNoPos, kNoPos, kNoPos};
        /** Correct-path loads: the youngest older correct-path store
         *  to the same word at dispatch (kNoPos = none). */
        RuuPos forwardPos = kNoPos;
        int numSrcs = 0;
        RegIndex dst = kNoReg;
    };

    void resetMachine(const Program &program);
    /** The run loop shared by run() and runWindow(): tick until halt
     *  or _maxInsts commits, with the forward-progress watchdog. */
    void runLoop(const Program &program);
    /** Apply the armed bit flip at its strike cycle (ruu_inject.cc). */
    void applyInjection();
    /** Machine-state snapshot for the forward-progress watchdog. */
    DeadlockInfo deadlockSnapshot(const Program &program) const;
    void doCommit();
    void doRecovery();
    void doIssue();
    void doDispatch();
    void doFetch();
    bool fuAvailable(OpClass cls) const;
    void consumeFu(OpClass cls);
    Cycle srcReady(const RuuInst &inst) const;
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
    /** Earliest cycle dispatch could act (kNoCycle while blocked on a
     *  condition another tracked event must clear). */
    Cycle dispatchEventCycle() const;
    Cycle fetchEventCycle() const;
    /** Target for an idle fast-forward jump; 0 if the coming cycle
     *  may be active. */
    Cycle fastForwardTarget() const;

    RuuCoreParams _p;
    stats::Group _stats;

    /** Hot-path counters resolved once at construction (the string
     *  map in _stats is for dumps/snapshots only). */
    struct BoundCounters
    {
        explicit BoundCounters(stats::Group &g);
        stats::Counter &cycles;
        stats::Counter &instsCommitted;
        stats::Counter &branchMispredicts;
        stats::Counter &instsIssued;
        stats::Counter &storeForwards;
        stats::Counter &instsDispatched;
    };
    BoundCounters _c;

    const Program *_prog = nullptr;
    std::unique_ptr<OracleStream> _oracle;
    std::unique_ptr<MemorySystem> _mem;
    std::unique_ptr<TournamentPredictor> _branchPred;
    std::unique_ptr<Btb> _btb;
    std::unique_ptr<ReturnAddressStack> _ras;

    Cycle _cycle = 0;
    InstSeq _seqCounter = 0;
    std::uint64_t _committed = 0;
    std::uint64_t _maxInsts = 0;
    bool _finished = false;

    Addr _fetchPc = 0;
    Cycle _fetchResumeAt = 0;
    bool _wrongPathMode = false;
    bool _haltFetched = false;

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
     *  this to the head). The issue scan starts here. */
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

    // Per-cycle FU accounting.
    Cycle _fuCycle = kNoCycle;
    int _aluUsed = 0;
    int _mulUsed = 0;
    int _fpAddUsed = 0;
    int _fpMulUsed = 0;
    int _memUsed = 0;

    Cycle _lastCommitCycle = 0;

    // ---- Event-driven wakeup state (lower bounds only: a stale
    // value costs a wasted scan, never a changed outcome) -------------
    /** Memory ops resident in the RUU (incremental replacement for
     *  the per-dispatch LSQ occupancy scan). */
    int _lsqUsed = 0;
    /** Correct-path results in flight (replaces the per-dispatch
     *  physical-register pressure scan). */
    int _inflightDst = 0;
    Cycle _issueWakeAt = 0;     ///< earliest possible issue
    /** SIMALPHA_SLOWPATH=1: execute every cycle, keep the fast
     *  bookkeeping alongside, and assert they agree. */
    bool _slowpath = false;
    Cycle _ffCheckUntil = 0;    ///< slowpath: predicted-idle window end
    bool _activity = false;     ///< slowpath: a stage acted this cycle

    // ---- State injection (inert unless armed) ------------------------
    inject::StateInjection _inject;  ///< armed spec (None = disarmed)
    Cycle _injectBudget = 0;         ///< cycle cap on injected runs
    /** True while armed and the flip has not struck yet (the single
     *  per-cycle poll flag; disarmed runs pay one predicted branch). */
    bool _injectPending = false;
    std::string _injectNote;         ///< what the last strike hit
};

} // namespace simalpha

#endif // SIMALPHA_OUTORDER_RUU_CORE_HH
