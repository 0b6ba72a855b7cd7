#include "core.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/logging.hh"
#include "common/trace.hh"

namespace simalpha {

namespace {

/** Byte-range overlap of two memory accesses. */
bool
overlapExact(Addr a, int a_bytes, Addr b, int b_bytes)
{
    return a < b + Addr(b_bytes) && b < a + Addr(a_bytes);
}

/** Word-granular (low-3-bits-masked) conflict compare. */
bool
overlapWord(Addr a, Addr b)
{
    return (a >> 3) == (b >> 3);
}

Addr
octawordEnd(Addr pc)
{
    return (pc & ~Addr(15)) + 16;
}

/**
 * The slot-stage subcluster assignment: a static table keyed by
 * instruction class and packet position, mirroring the predetermined
 * slotting rules of the 21264.
 * @return 1 for upper, 0 for lower
 */
int
slotAssignment(const Instruction &inst, int packet_slot)
{
    switch (inst.opClass()) {
      case OpClass::IntLoad: case OpClass::IntStore:
      case OpClass::FpLoad: case OpClass::FpStore:
        return 0;       // memory ops use the lower subclusters
      case OpClass::IntMul:
      case OpClass::CondBranch: case OpClass::UncondBranch:
      case OpClass::Call: case OpClass::IndirectJump:
      case OpClass::Return:
        return 1;       // multiplies and branches live in the uppers
      default:
        // Plain ALU ops alternate by packet position (slots 0 and 3 go
        // upper) so a full packet spreads across the subclusters.
        return (packet_slot == 0 || packet_slot == 3) ? 1 : 0;
    }
}

} // namespace

AlphaCore::AlphaCore(const AlphaCoreParams &params)
    : _p(params), _stats(params.name), _c(_stats),
      _fetchQueue(std::size_t(std::max(params.fetchQueueEntries, 1))),
      _rob(std::size_t(std::max(params.robEntries, 1)))
{
}

AlphaCore::BoundCounters::BoundCounters(stats::Group &g)
    : cycles(g.counter("cycles")),
      instsCommitted(g.counter("insts_committed")),
      branchesRetired(g.counter("branches_retired")),
      mispredictsRetired(g.counter("mispredicts_retired")),
      jumpMispredicts(g.counter("jump_mispredicts")),
      branchMispredicts(g.counter("branch_mispredicts")),
      replayTraps(g.counter("replay_traps")),
      instsSquashed(g.counter("insts_squashed")),
      instsIssued(g.counter("insts_issued")),
      storeForwards(g.counter("store_forwards")),
      loadOrderTraps(g.counter("load_order_traps")),
      mboxExtraTraps(g.counter("mbox_extra_traps")),
      storeReplayTraps(g.counter("store_replay_traps")),
      loadUseReplays(g.counter("load_use_replays")),
      loadUseViolations(g.counter("load_use_violations")),
      mapStalls(g.counter("map_stalls")),
      unopsRemoved(g.counter("unops_removed")),
      instsMapped(g.counter("insts_mapped")),
      wayMispredicts(g.counter("way_mispredicts")),
      icacheMissStalls(g.counter("icache_miss_stalls")),
      fetchPackets(g.counter("fetch_packets")),
      directionMispredicts(g.counter("direction_mispredicts")),
      targetMispredicts(g.counter("target_mispredicts")),
      slotMisses(g.counter("slot_misses")),
      lineMisfires(g.counter("line_misfires")),
      wrongPathPackets(g.counter("wrong_path_packets"))
{
}

void
AlphaCore::resetMachine(const Program &program)
{
    _prog = &program;
    // The oracle is program state and is rebuilt every run; every other
    // sub-unit's geometry is fixed by _p, so on reuse the units are
    // reset in place instead of reallocated (campaign core reuse).
    _oracle = std::make_unique<OracleStream>(program);
    if (!_mem) {
        _mem = std::make_unique<MemorySystem>(_p.mem);
        _rename =
            std::make_unique<RenameUnit>(_p.physIntRegs, _p.physFpRegs);
        _scoreboard =
            std::make_unique<Scoreboard>(_p.physIntRegs + _p.physFpRegs);
        _fuPool = std::make_unique<FuPool>(_p.bugWrongFuMix);
        _branchPred =
            std::make_unique<TournamentPredictor>(_p.speculativeUpdate);
        _linePred = std::make_unique<LinePredictor>(1024, 1);
        int icache_sets = _p.mem.l1i.sizeBytes /
                          (_p.mem.l1i.blockBytes * _p.mem.l1i.assoc);
        _wayPred = std::make_unique<WayPredictor>(icache_sets);
        _ras = std::make_unique<ReturnAddressStack>();
        _loadUsePred = std::make_unique<LoadUsePredictor>();
        _storeWait = std::make_unique<StoreWaitPredictor>();
        int removal_delay = _p.approxDelayedIqRemoval ? 2 : 1;
        _intIq =
            std::make_unique<IssueQueue>(_p.intIqEntries, removal_delay);
        _fpIq =
            std::make_unique<IssueQueue>(_p.fpIqEntries, removal_delay);
        for (int pipe = 0; pipe < _fuPool->numPipes(); pipe++) {
            bool fp = _fuPool->pipeIsFp(pipe);
            _clusterPipes[fp ? 0 : _fuPool->pipeCluster(pipe)] |=
                std::uint8_t(1u << pipe);
        }
    } else {
        _mem->reset();
        _rename->reset();
        _scoreboard->reset();
        _fuPool->reset();
        _branchPred->reset();
        _linePred->reset();
        _wayPred->reset();
        _ras->reset();
        _loadUsePred->reset();
        _storeWait->reset();
        _intIq->clear();
        _fpIq->clear();
    }

    _cycle = 0;
    _seqCounter = 0;
    _committed = 0;
    _finished = false;
    _fetchPc = program.entryPc;
    _fetchResumeAt = 0;
    _wrongPathMode = false;
    _haltFetched = false;
    _mapBlockedUntil = 0;
    _lqUsed = 0;
    _sqUsed = 0;
    _lastCommitCycle = 0;
    _fetchQueue.clear();
    _rob.clear();
    _recovery.reset();
    _loadUseChecks.clear();
    _outstandingMisses.clear();
    _stats.reset();

    _intWakeAt = 0;
    _fpWakeAt = 0;
    _nextLoadUseVerify = kNoCycle;
    _issuedStores.clear();
    _issuedLoads.clear();
    _cands[0].clear();
    _cands[1].clear();
    _selectEpoch = 1;
    _cacheReadiness = true;
    _waiters.assign(std::size_t(_p.physIntRegs + _p.physFpRegs), nullptr);
    _unresolvedStores.clear();
    const char *slow = std::getenv("SIMALPHA_SLOWPATH");
    _slowpath = slow && std::strcmp(slow, "1") == 0;
    _ffCheckUntil = 0;
    _activity = false;

    // An armed injection re-arms for every run; the strike itself is
    // per-run state.
    _injectPending = _inject.enabled();
    _injectNote.clear();
}

void
AlphaCore::runLoop(const Program &program)
{
    const Cycle budget = _inject.enabled() ? _injectBudget : 0;
    while (!_finished && (_maxInsts == 0 || _committed < _maxInsts)) {
        cycleTick();
        if (_p.watchdogCycles &&
            _cycle - _lastCommitCycle > _p.watchdogCycles)
            throw DeadlockError(deadlockSnapshot(program));
        if (budget && _cycle > budget)
            throw TimeoutError(
                "injected run exceeded its cycle budget (" +
                std::to_string(budget) + " cycles)");
    }
}

RunResult
AlphaCore::run(const Program &program, std::uint64_t max_insts)
{
    resetMachine(program);
    _maxInsts = max_insts;
    runLoop(program);

    RunResult res;
    res.machine = _p.name;
    res.program = program.name;
    res.cycles = _cycle;
    res.instsCommitted = _committed;
    res.finished = _finished;
    _c.cycles.set(_cycle);
    _c.instsCommitted.set(_committed);
    return res;
}

RunResult
AlphaCore::runWindow(const Program &program, const Checkpoint &start,
                     std::uint64_t warmup_insts,
                     std::uint64_t measure_insts,
                     std::map<std::string, std::uint64_t>
                         *measured_counters)
{
    resetMachine(program);
    // Swap the reset-state oracle for one resuming at the checkpoint;
    // fetch starts where the restored architectural state left off.
    // Everything microarchitectural (caches, predictors, queues)
    // stays cold — that is what the warm-up phase is for.
    _oracle = std::make_unique<OracleStream>(program, start);
    _fetchPc = start.pc;
    if (start.halted)
        _finished = true;

    if (warmup_insts && !_finished) {
        _maxInsts = warmup_insts;
        runLoop(program);
    }
    Cycle warm_cycles = _cycle;
    std::uint64_t warm_insts = _committed;
    std::map<std::string, std::uint64_t> before;
    if (measured_counters) {
        _c.cycles.set(_cycle);
        _c.instsCommitted.set(_committed);
        before = _stats.snapshot();
    }

    if (!_finished) {
        // measure_insts == 0 runs the window to program completion.
        _maxInsts = measure_insts ? warm_insts + measure_insts : 0;
        runLoop(program);
    }

    RunResult res;
    res.machine = _p.name;
    res.program = program.name;
    res.cycles = _cycle - warm_cycles;
    res.instsCommitted = _committed - warm_insts;
    res.finished = _finished;
    _c.cycles.set(_cycle);
    _c.instsCommitted.set(_committed);
    if (measured_counters) {
        measured_counters->clear();
        for (const auto &kv : _stats.snapshot()) {
            auto it = before.find(kv.first);
            std::uint64_t prior =
                it == before.end() ? 0 : it->second;
            (*measured_counters)[kv.first] = kv.second - prior;
        }
    }
    return res;
}

DeadlockInfo
AlphaCore::deadlockSnapshot(const Program &program) const
{
    DeadlockInfo info;
    info.machine = _p.name;
    info.program = program.name;
    info.cycle = _cycle;
    info.lastCommitCycle = _lastCommitCycle;
    info.committed = _committed;
    info.fetchPc = _fetchPc;
    info.windowOccupancy = _rob.size();
    if (!_rob.empty()) {
        const DynInst &h = _rob.front();
        char buf[192];
        std::snprintf(buf, sizeof(buf),
                      "seq=%llu pc=0x%llx %s wp=%d issued=%d "
                      "done=%llu mispred=%d",
                      (unsigned long long)h.seq,
                      (unsigned long long)h.pc,
                      h.inst.disassemble().c_str(), int(h.wrongPath),
                      int(h.issued), (unsigned long long)h.doneCycle,
                      int(h.mispredicted));
        info.oldestInst = buf;
    }
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "resumeAt=%llu wrongPath=%d haltFetched=%d fq=%zu "
                  "mapBlocked=%llu recovery=%d intIq=%d fpIq=%d",
                  (unsigned long long)_fetchResumeAt,
                  int(_wrongPathMode), int(_haltFetched),
                  _fetchQueue.size(),
                  (unsigned long long)_mapBlockedUntil,
                  int(_recovery.has_value()), _intIq->size(),
                  _fpIq->size());
    info.detail = buf;
    return info;
}

void
AlphaCore::cycleTick()
{
    if (_slowpath) {
        // Dual-run mode: predict the idle window the fast path would
        // skip, then execute every cycle anyway and assert each one
        // really was inactive.
        if (_cycle >= _ffCheckUntil) {
            Cycle j = fastForwardTarget();
            if (j)
                _ffCheckUntil = j;
        }
        _activity = false;
    } else {
        Cycle j = fastForwardTarget();
        if (j) {
            // Every cycle in [_cycle, j) is provably inactive: each
            // stage's next possible action is at or after j (capped
            // at the watchdog horizon, so deadlocks still fire at the
            // exact baseline cycle).
            _cycle = j;
            return;
        }
    }

    // The armed flip strikes before the stages of its cycle run, on
    // the slow and fast paths alike (fastForwardTarget never jumps
    // across a pending strike).
    if (_injectPending && _cycle >= _inject.cycle)
        applyInjection();

    doVerify();
    doRetire();
    if (_finished)
        return;
    doIssue();
    doMap();
    doFetch();
    if (_slowpath && _cycle < _ffCheckUntil)
        sim_assert(!_activity);
    _cycle++;
}

// ---------------------------------------------------------------------
// Event-driven wakeup: lower bounds on each stage's next action
// ---------------------------------------------------------------------

Cycle
AlphaCore::recomputeWakeAt(int q)
{
    Cycle wake = kNoCycle;
    for (DynInst *inst : (q ? *_fpIq : *_intIq).entries()) {
        if (inst->issued || inst->retiredEarly)
            continue;
        const Cycle *at = issueCycles(*inst, q);
        Cycle lb = std::min(at[0], at[1]);
        if (lb <= _cycle) {
            // Blocked only by per-cycle arbitration (pipe busy,
            // store-wait): must rescan every cycle.
            return _cycle + 1;
        }
        wake = std::min(wake, lb);
    }
    return wake;
}

Cycle
AlphaCore::mapEventCycle() const
{
    // Mirrors doMap's first-iteration gates. Conditions that only a
    // tracked event can clear (ROB/queue space) report kNoCycle; the
    // event that clears them is in nextEventCycle()'s min.
    if (_fetchQueue.empty())
        return kNoCycle;
    const DynInst &front = _fetchQueue.front();
    Cycle cand = std::max(front.readyForMap, _mapBlockedUntil);
    if (int(_rob.size()) >= _p.robEntries)
        return kNoCycle;
    bool is_nop = front.inst.isNop();
    bool remove_early =
        is_nop && _p.earlyUnopRetire && !_p.bugNoUnopRemoval;
    if (!remove_early) {
        bool fp_queue = front.inst.isFp() && !front.inst.isMem();
        const IssueQueue &iq = fp_queue ? *_fpIq : *_intIq;
        if (iq.full())
            return kNoCycle;
        if (front.inst.isLoad() && _lqUsed >= _p.lqEntries)
            return kNoCycle;
        if (front.inst.isStore() && _sqUsed >= _p.sqEntries)
            return kNoCycle;
    }
    if (!front.wrongPath) {
        RegIndex dst = front.inst.dstReg();
        if (dst != kNoReg && !is_nop && !remove_early) {
            bool fp = isFpRegIndex(dst);
            int free_regs =
                fp ? _rename->freeFpRegs() : _rename->freeIntRegs();
            if (_p.mapStall && free_regs < _p.minFreeRegs)
                return cand;    // the stall branch itself is activity
            if (free_regs == 0)
                return kNoCycle;
        }
    }
    return cand;
}

Cycle
AlphaCore::fetchEventCycle() const
{
    // All of these gates are invariant across an idle window: they
    // change only when fetch, map, or a recovery acts.
    if (_haltFetched && !_wrongPathMode)
        return kNoCycle;
    if (int(_fetchQueue.size()) + _p.fetchWidth > _p.fetchQueueEntries)
        return kNoCycle;
    if (!_wrongPathMode && _oracle->exhausted())
        return kNoCycle;
    return _fetchResumeAt;
}

Cycle
AlphaCore::nextEventCycle() const
{
    Cycle ev = kNoCycle;
    if (_recovery)
        ev = std::min(ev, _recovery->atCycle);
    ev = std::min(ev, _nextLoadUseVerify);
    if (!_rob.empty()) {
        const DynInst &head = _rob.front();
        // Incomplete or wrong-path heads unblock via issue/recovery
        // events; a recovery-gated head unblocks when it fires.
        if (!head.wrongPath && head.completed &&
            !(_recovery && head.seq >= _recovery->seq))
            ev = std::min(ev, head.doneCycle);
    }
    ev = std::min(ev, _intIq->nextRemoval());
    ev = std::min(ev, _fpIq->nextRemoval());
    ev = std::min(ev, _intWakeAt);
    ev = std::min(ev, _fpWakeAt);
    ev = std::min(ev, mapEventCycle());
    ev = std::min(ev, fetchEventCycle());
    return ev;
}

Cycle
AlphaCore::fastForwardTarget() const
{
    Cycle j = nextEventCycle();
    if (_p.watchdogCycles) {
        // Jump at most to the cycle where the watchdog fires, so a
        // deadlocked machine still throws with the baseline cycle
        // number and snapshot.
        j = std::min(j, _lastCommitCycle + _p.watchdogCycles + 1);
    }
    if (_injectPending) {
        // Never jump across a pending strike: the flip must land at
        // its planned cycle, before that cycle's stages run.
        j = std::min(j, _inject.cycle);
    }
    if (j == kNoCycle || j <= _cycle + 1)
        return 0;
    return j;
}

// ---------------------------------------------------------------------
// Issued-memory-op indexes (replace full ROB scans at issue time)
// ---------------------------------------------------------------------

void
AlphaCore::addIssuedRef(std::vector<IssuedMemRef> &index,
                        const DynInst &inst)
{
    IssuedMemRef ref{inst.seq, inst.effAddr, inst.inst.memBytes(),
                     inst.pc};
    auto it = std::lower_bound(
        index.begin(), index.end(), ref,
        [](const IssuedMemRef &a, const IssuedMemRef &b) {
            return a.seq < b.seq;
        });
    index.insert(it, ref);
}

void
AlphaCore::removeIssuedRef(std::vector<IssuedMemRef> &index, InstSeq seq)
{
    auto it = std::lower_bound(
        index.begin(), index.end(), seq,
        [](const IssuedMemRef &a, InstSeq s) { return a.seq < s; });
    if (it != index.end() && it->seq == seq)
        index.erase(it);
}

bool
AlphaCore::storeForwardLookup(const DynInst &ld) const
{
    for (auto it = _issuedStores.rbegin(); it != _issuedStores.rend();
         ++it) {
        if (it->seq >= ld.seq)
            continue;
        bool overlap = _p.approxMaskedStoreTrapAddr
                           ? overlapWord(it->addr, ld.effAddr)
                           : overlapExact(it->addr, it->bytes,
                                          ld.effAddr,
                                          ld.inst.memBytes());
        if (overlap)
            return true;
    }
    return false;
}

const AlphaCore::IssuedMemRef *
AlphaCore::youngestConflictingLoad(const DynInst &ld) const
{
    for (auto it = _issuedLoads.rbegin(); it != _issuedLoads.rend();
         ++it) {
        if (it->seq <= ld.seq)
            break;      // seq-sorted: everything further is older
        bool conflict = _p.bugMaskedLoadTrapAddr
                            ? overlapWord(it->addr, ld.effAddr)
                            : overlapExact(it->addr, it->bytes,
                                           ld.effAddr,
                                           ld.inst.memBytes());
        if (conflict)
            return &*it;
    }
    return nullptr;
}

const AlphaCore::IssuedMemRef *
AlphaCore::oldestConflictingLoad(const DynInst &st) const
{
    for (const IssuedMemRef &ref : _issuedLoads) {
        if (ref.seq <= st.seq)
            continue;
        bool conflict = _p.approxMaskedStoreTrapAddr
                            ? overlapWord(ref.addr, st.effAddr)
                            : overlapExact(ref.addr, ref.bytes,
                                           st.effAddr,
                                           st.inst.memBytes());
        if (conflict)
            return &ref;
    }
    return nullptr;
}

// ---------------------------------------------------------------------
// Retire
// ---------------------------------------------------------------------

void
AlphaCore::doRetire()
{
    int retired = 0;
    while (retired < _p.retireWidth && !_rob.empty()) {
        DynInst &head = _rob.front();
        if (head.wrongPath) {
            // A wrong-path head can only exist while its squashing
            // recovery is still pending.
            sim_assert(_recovery.has_value());
            break;
        }
        if (!head.completed || head.doneCycle > _cycle)
            break;
        if (_recovery && head.seq >= _recovery->seq) {
            // A pending recovery will squash (or, for a resolving
            // branch, redirect at) this instruction; hold retirement
            // until the recovery fires.
            break;
        }

        // Commit-time actions.
        if (head.inst.isStore()) {
            _mem->dataAccess(head.effAddr, true, _cycle);
            _sqUsed--;
            removeIssuedRef(_issuedStores, head.seq);
            // Only a flipped memIssued retires a store unresolved.
            if (!_unresolvedStores.empty() &&
                _unresolvedStores.front() == head.seq)
                _unresolvedStores.erase(_unresolvedStores.begin());
        }
        if (head.inst.isLoad()) {
            _lqUsed--;
            removeIssuedRef(_issuedLoads, head.seq);
        }
        if (head.inst.isCondBranch() && head.hasBpSnap)
            _branchPred->update(head.pc, head.taken, head.bpSnap);
        if (!_p.speculativeUpdate) {
            if (head.lpTrainPc != kNoAddr)
                _linePred->train(head.lpTrainPc, head.lpTrainNext);
            if (head.inst.isCall())
                _ras->push(head.pc + 4);
            else if (head.inst.isReturn())
                _ras->pop();
        }
        _rename->release(head.oldPhys);
        _oracle->retireBefore(head.oracleSeq + 1);

        if (head.inst.isControl())
            ++_c.branchesRetired;
        if (head.mispredicted)
            ++_c.mispredictsRetired;

        _committed++;
        _lastCommitCycle = _cycle;
        retired++;
        _activity = true;

        // Make sure no issue-queue pointer survives the pop.
        _intIq->retire(&head);
        _fpIq->retire(&head);
        if (head.halt) {
            _finished = true;
            _rob.pop_front();
            return;
        }
        _rob.pop_front();
    }
}

// ---------------------------------------------------------------------
// Verification: load-use speculation checks and recovery execution
// ---------------------------------------------------------------------

void
AlphaCore::doVerify()
{
    // Load-use mis-speculation: replay what issued inside the window.
    // Scans are gated on the earliest pending verifyAt; a check is
    // never added without clamping _nextLoadUseVerify, so the gate can
    // only fire early (wasted scan), never late.
    bool verify_gate = _nextLoadUseVerify <= _cycle;
    if (_slowpath || verify_gate) {
        bool erased = false;
        for (std::size_t i = 0; i < _loadUseChecks.size();) {
            if (_loadUseChecks[i].verifyAt <= _cycle) {
                unissueForReplay(_loadUseChecks[i]);
                _loadUseChecks.erase(_loadUseChecks.begin() +
                                     std::ptrdiff_t(i));
                erased = true;
            } else {
                i++;
            }
        }
        if (erased) {
            _activity = true;
            if (_slowpath)
                sim_assert(verify_gate);
        }
        _nextLoadUseVerify = kNoCycle;
        for (const LoadUseCheck &c : _loadUseChecks)
            _nextLoadUseVerify =
                std::min(_nextLoadUseVerify, c.verifyAt);
    }

    if (!_recovery || _recovery->atCycle > _cycle)
        return;
    _activity = true;

    Recovery rec = *_recovery;
    _recovery.reset();
    TRACE(Recovery,
          "[%llu] execute kind=%d seq=%llu resume=0x%llx oracle=0x%llx",
          (unsigned long long)_cycle, int(rec.kind),
          (unsigned long long)rec.seq,
          (unsigned long long)rec.resumePc,
          (unsigned long long)_oracle->nextPc());

    bool inclusive = rec.kind == Recovery::Kind::Trap;
    squashFrom(inclusive ? rec.seq : rec.seq + 1, inclusive);

    if (rec.kind == Recovery::Kind::BranchMispredict) {
        // Fix the resolving branch's own speculative history shift and
        // repair the line predictor toward the actual target.
        DynInst *causer = nullptr;
        for (auto it = _rob.rbegin(); it != _rob.rend(); ++it) {
            if (it->seq == rec.seq) {
                causer = &*it;
                break;
            }
        }
        if (causer) {
            if (causer->inst.isCondBranch() && causer->hasBpSnap)
                _branchPred->recover(causer->bpSnap, causer->taken);
            _linePred->train(causer->pc, rec.resumePc);
            ++(causer->inst.isIndirect() ? _c.jumpMispredicts
                                          : _c.branchMispredicts);
            // The redirect is a one-shot fetch event: if a load-use
            // replay later re-issues this instruction, it must not
            // redirect again.
            causer->mispredicted = false;
        }
        Cycle restart = rec.indirect ? Cycle(_p.indirectRestartCycles)
                                     : Cycle(_p.branchRestartCycles);
        if (_p.bugLateBranchRecovery && !rec.indirect) {
            // sim-initial discovered line mispredictions only after
            // execute and initiated a full rollback: an excessive
            // penalty on every recovery.
            restart += Cycle(_p.lateRecoveryExtraCycles);
        }
        _fetchPc = rec.resumePc;
        _fetchResumeAt = std::max(_fetchResumeAt, _cycle + restart);
        _wrongPathMode = false;
    } else {
        // Replay trap: refetch from the victim itself.
        if (rec.markStoreWait && _p.storeWaitTable)
            _storeWait->markConflict(rec.storeWaitPc);
        ++_c.replayTraps;
        _fetchPc = rec.resumePc;
        _fetchResumeAt =
            std::max(_fetchResumeAt, _cycle + Cycle(_p.trapRestartCycles));
        _wrongPathMode = false;
        _haltFetched = false;
    }
}

void
AlphaCore::squashFrom(InstSeq seq, bool refetch_inclusive)
{
    // Drop pending load-use checks and outstanding-miss records for the
    // squashed region.
    std::erase_if(_loadUseChecks, [seq](const LoadUseCheck &c) {
        return c.loadSeq >= seq;
    });

    // Un-fetched/un-mapped instructions first (youngest first so
    // predictor snapshots unwind in reverse order).
    while (!_fetchQueue.empty() && _fetchQueue.back().seq >= seq) {
        DynInst &di = _fetchQueue.back();
        if (di.hasBpSnap)
            _branchPred->restore(di.bpSnap);
        if (di.hasRasSnap)
            _ras->restore(di.rasSnap);
        _fetchQueue.pop_back();
    }

    _intIq->squashFrom(seq);
    _fpIq->squashFrom(seq);

    InstSeq lowest_oracle = kNoCycle;
    while (!_rob.empty() && _rob.back().seq >= seq) {
        DynInst &di = _rob.back();
        if (di.hasBpSnap)
            _branchPred->restore(di.bpSnap);
        if (di.hasRasSnap)
            _ras->restore(di.rasSnap);
        if (!di.wrongPath) {
            if (di.dstPhys != kNoPhys) {
                _scoreboard->setReadyNow(di.dstPhys);
                _rename->undo(di.archDst, di.dstPhys, di.oldPhys);
            }
            if (di.inst.isLoad())
                _lqUsed--;
            if (di.inst.isStore())
                _sqUsed--;
            lowest_oracle = di.oracleSeq;
        }
        ++_c.instsSquashed;
        _rob.pop_back();
    }

    // Rewind the oracle if architecturally executed instructions were
    // squashed (replay traps refetch them).
    if (refetch_inclusive && lowest_oracle != kNoCycle)
        _oracle->rewindTo(lowest_oracle);

    // Drop the squashed tail of the issued-memory-op indexes.
    auto chop = [seq](std::vector<IssuedMemRef> &index) {
        index.erase(
            std::lower_bound(index.begin(), index.end(), seq,
                             [](const IssuedMemRef &a, InstSeq s) {
                                 return a.seq < s;
                             }),
            index.end());
    };
    chop(_issuedStores);
    chop(_issuedLoads);
    _unresolvedStores.erase(std::lower_bound(_unresolvedStores.begin(),
                                             _unresolvedStores.end(), seq),
                            _unresolvedStores.end());

    // setReadyNow during the unwind can expose past ready cycles to
    // surviving consumers; re-arm both issue-queue wakeups. Squashed
    // entries may sit on wake-up lists: drop them all.
    noteSetReady(_cycle);
    invalidateSelect();
}

void
AlphaCore::scheduleRecovery(const Recovery &rec)
{
    TRACE(Recovery,
          "[%llu] schedule kind=%d seq=%llu at=%llu resume=0x%llx",
          (unsigned long long)_cycle, int(rec.kind),
          (unsigned long long)rec.seq, (unsigned long long)rec.atCycle,
          (unsigned long long)rec.resumePc);
    if (!_recovery || rec.seq < _recovery->seq)
        _recovery = rec;
}

// ---------------------------------------------------------------------
// Issue
// ---------------------------------------------------------------------

Cycle
AlphaCore::operandReadyCycle(const DynInst &inst, int cluster) const
{
    Cycle ready = 0;
    for (int i = 0; i < inst.numSrcs; i++) {
        PhysReg src = inst.srcPhys[i];
        Cycle r;
        if (_p.approxBypassLatency || _p.bugAggressiveCluster) {
            // The sim-alpha bypass shortcut: bypassed values ignore the
            // cross-cluster skew.
            Cycle r0 = _scoreboard->readyAt(src, 0);
            Cycle r1 = _scoreboard->readyAt(src, 1);
            r = std::min(r0, r1);
        } else {
            r = _scoreboard->readyAt(src, cluster);
        }
        if (r == kNoCycle)
            return kNoCycle;
        if (!_p.fullBypass && _p.regreadCycles > 1) {
            // Partial bypass on the 21264: same-pipe forwarding always
            // remains, so only the register-file cycles beyond the
            // first are exposed to dependents (the paper's observation
            // that the Alpha's scheduling absorbs one-cycle bubbles).
            r += Cycle(_p.regreadCycles - 1);
        }
        ready = std::max(ready, r);
    }
    return ready;
}

void
AlphaCore::invalidateSelect()
{
    ++_selectEpoch;
    std::fill(_waiters.begin(), _waiters.end(), nullptr);
}

void
AlphaCore::scheduleResult(PhysReg dst, Cycle ready, int cluster)
{
    bool was_pending = _scoreboard->pending(dst);
    _scoreboard->setReady(dst, ready, cluster);
    noteSetReady(ready);
    if (!was_pending || ready <= _cycle) {
        // A consumer may have cached the old ready cycle, or may now
        // issue in this very cycle on a later pipe.
        invalidateSelect();
        return;
    }
    for (DynInst *w = _waiters[std::size_t(dst)]; w; w = w->nextWaiter)
        w->readyEpoch = 0;
    _waiters[std::size_t(dst)] = nullptr;
}

PhysReg
AlphaCore::computeIssueCycles(const DynInst &inst, int q,
                              Cycle at[2]) const
{
    Cycle base = std::max(inst.mapCycle + Cycle(_p.mapToIssueCycles),
                          inst.replayBlockedUntil);
    at[0] = base;
    at[1] = q ? kNoCycle : base;
    if (inst.wrongPath)
        return kNoPhys;     // wrong-path slots wait for no operand
    // operandReadyCycle for both clusters in one pass.
    bool merged = _p.approxBypassLatency || _p.bugAggressiveCluster;
    Cycle exposed = (!_p.fullBypass && _p.regreadCycles > 1)
                        ? Cycle(_p.regreadCycles - 1)
                        : 0;
    for (int i = 0; i < inst.numSrcs; i++) {
        PhysReg src = inst.srcPhys[i];
        const Cycle *r = _scoreboard->readyCycles(src);
        if (!r) {
            at[0] = at[1] = kNoCycle;
            return src;
        }
        Cycle r0 = r[0];
        Cycle r1 = r[1];
        if (merged)
            r0 = r1 = std::min(r0, r1);
        at[0] = std::max(at[0], r0 + exposed);
        if (!q)
            at[1] = std::max(at[1], r1 + exposed);
    }
    return kNoPhys;
}

const Cycle *
AlphaCore::refreshIssueCycles(DynInst &inst, int q)
{
    PhysReg pending = computeIssueCycles(inst, q, inst.issueAt);
    if (pending != kNoPhys && _cacheReadiness) {
        // Park until this source is scheduled.
        inst.nextWaiter = _waiters[std::size_t(pending)];
        _waiters[std::size_t(pending)] = &inst;
    }
    inst.readyEpoch = _selectEpoch;
    return inst.issueAt;
}

void
AlphaCore::verifySelectState() const
{
    for (int q = 0; q < 2; q++) {
        for (const DynInst *inst : (q ? *_fpIq : *_intIq).entries()) {
            if (!_cacheReadiness || inst->readyEpoch != _selectEpoch)
                continue;
            Cycle at[2];
            computeIssueCycles(*inst, q, at);
            sim_assert(at[0] == inst->issueAt[0] &&
                       at[1] == inst->issueAt[1]);
        }
    }
    std::vector<InstSeq> unresolved;
    for (const DynInst &d : _rob)
        if (!d.wrongPath && d.inst.isStore() && !d.memIssued)
            unresolved.push_back(d.seq);
    sim_assert(unresolved == _unresolvedStores);
}

void
AlphaCore::gatherCandidates(int q, std::uint8_t free)
{
    std::vector<Candidate> &out = _cands[q];
    out.clear();
    for (DynInst *inst : (q ? *_fpIq : *_intIq).entries()) {
        if (inst->issued || inst->retiredEarly)
            continue;
        std::uint8_t pipes = inst->fitMask & free;
        if (!pipes)
            continue;
        const Cycle *at = issueCycles(*inst, q);
        if (at[0] > _cycle)
            pipes &= std::uint8_t(~_clusterPipes[0]);
        if (at[1] > _cycle)
            pipes &= std::uint8_t(~_clusterPipes[1]);
        if (pipes)
            out.push_back({inst, pipes});
    }
}

DynInst *
AlphaCore::selectFor(int pipe, int *consults)
{
    // Store-wait is judged here, at the pipe's turn, never at gather
    // time: a store issued on an earlier pipe this cycle can release a
    // younger load, and the predictor's periodic clear happens on its
    // first consult.
    bool store_wait = _p.mboxTraps && _p.storeWaitTable;
    for (Candidate &c : _cands[_fuPool->pipeIsFp(pipe)]) {
        if (!(c.pipes >> pipe & 1u))
            continue;
        if (store_wait && !c.inst->wrongPath && c.inst->inst.isLoad()) {
            ++*consults;
            if (!storeWaitClear(*c.inst))
                continue;
        }
        c.pipes = 0;    // it issues: no later pipe may take it
        return c.inst;
    }
    return nullptr;
}

DynInst *
AlphaCore::referenceScan(int pipe, int *consults) const
{
    bool fp_pipe = _fuPool->pipeIsFp(pipe);
    int rc = fp_pipe ? 0 : _fuPool->pipeCluster(pipe);
    for (DynInst *inst : (fp_pipe ? *_fpIq : *_intIq).entries()) {
        if (inst->issued || inst->retiredEarly)
            continue;
        if (inst->replayBlockedUntil > _cycle)
            continue;
        if (inst->mapCycle + Cycle(_p.mapToIssueCycles) > _cycle)
            continue;
        if (!_fuPool->pipeCanIssue(pipe, inst->inst.opClass(),
                                   inst->slottedUpper != 0,
                                   _p.slotRestrict, _cycle))
            continue;
        if (!inst->wrongPath) {
            // Operands must have reached this pipe's cluster.
            Cycle r = operandReadyCycle(*inst, rc);
            if (r == kNoCycle || r > _cycle)
                continue;
            if (inst->inst.isLoad() && _p.mboxTraps &&
                _p.storeWaitTable) {
                ++*consults;
                if (_storeWait->wouldWait(inst->pc, _cycle) &&
                    olderStoreUnresolved(*inst))
                    continue;
            }
        }
        return inst;
    }
    return nullptr;
}

void
AlphaCore::doIssue()
{
    _activity = _intIq->compact(_cycle) || _activity;
    _activity = _fpIq->compact(_cycle) || _activity;

    // A queue whose wake-up lower bound lies in the future holds no
    // entry that can pass the issue gates, so its select (and every
    // stateful call inside it, e.g. the store-wait predictor's
    // shouldWait) is skipped wholesale.
    const Cycle wake0[2] = {_intWakeAt, _fpWakeAt};
    const bool scan[2] = {_slowpath || wake0[0] <= _cycle,
                          _slowpath || wake0[1] <= _cycle};
    bool issued[2] = {false, false};

    if (_slowpath)
        verifySelectState();
    if (scan[0] || scan[1]) {
        // Per-pipe arbitration: each execution pipe, in index order,
        // issues the oldest queue entry that can use it this cycle and
        // whose operands have reached its cluster — the collapsible-
        // queue oldest-first policy of the 21264, one winner per pipe.
        std::uint8_t free = _fuPool->freeMask(_cycle);
        std::uint64_t epoch = 0;
        for (int pipe = 0; pipe < _fuPool->numPipes(); pipe++) {
            int q = _fuPool->pipeIsFp(pipe);
            if (!scan[q])
                continue;
            if (epoch != _selectEpoch) {
                // First pipe, or an issue invalidated cached readiness.
                epoch = _selectEpoch;
                for (int k = 0; k < 2; k++)
                    if (scan[k])
                        gatherCandidates(k, free);
            }
            int consults = 0;
            DynInst *inst = (free >> pipe & 1u)
                                ? selectFor(pipe, &consults)
                                : nullptr;
            if (_slowpath) {
                int ref_consults = 0;
                sim_assert(referenceScan(pipe, &ref_consults) == inst);
                sim_assert(ref_consults == consults);
                sim_assert(!consults || wake0[q] <= _cycle);
            }
            if (!inst)
                continue;
            int cluster = q ? -1 : _fuPool->pipeCluster(pipe);
            _fuPool->reservePipe(pipe, inst->cls, _cycle);
            performIssue(*inst, cluster);
            (q ? *_fpIq : *_intIq).noteIssued(_cycle);
            issued[q] = true;
            _activity = true;
            if (_slowpath)
                sim_assert(wake0[q] <= _cycle);
        }
    }

    // A queue that issued must be rescanned next cycle; a queue that
    // was scanned fruitlessly gets an exact recomputed bound; a queue
    // that was skipped keeps its bound (clamped by noteSetReady as
    // operands get scheduled).
    _intWakeAt = issued[0] ? _cycle + 1
                           : (scan[0] ? recomputeWakeAt(0) : _intWakeAt);
    _fpWakeAt = issued[1] ? _cycle + 1
                          : (scan[1] ? recomputeWakeAt(1) : _fpWakeAt);
}

bool
AlphaCore::storeWaitClear(const DynInst &ld)
{
    // A load flagged by the store-wait table waits for every earlier
    // store to resolve its address.
    if (!_storeWait->shouldWait(ld.pc, _cycle))
        return true;
    bool clear = _unresolvedStores.empty() ||
                 _unresolvedStores.front() > ld.seq;
    if (_slowpath)
        sim_assert(clear == !olderStoreUnresolved(ld));
    return clear;
}

bool
AlphaCore::olderStoreUnresolved(const DynInst &ld) const
{
    for (const DynInst &older : _rob) {
        if (older.seq >= ld.seq)
            break;
        if (older.inst.isStore() && !older.memIssued)
            return true;
    }
    return false;
}

void
AlphaCore::performIssue(DynInst &inst, int cluster)
{
    inst.issued = true;
    inst.issueCycle = _cycle;
    inst.cluster = cluster < 0 ? 0 : cluster;
    ++_c.instsIssued;

    if (inst.wrongPath) {
        inst.doneCycle = _cycle + Cycle(inst.inst.latency());
        inst.completed = true;
        return;
    }

    if (inst.inst.isLoad()) {
        issueLoad(inst);
        return;
    }
    if (inst.inst.isStore()) {
        issueStore(inst);
        return;
    }

    int latency = inst.inst.latency();
    if (_p.bugShortMulLatency && inst.cls == OpClass::IntMul)
        latency = 1;
    Cycle done = _cycle + Cycle(latency);
    if (inst.dstPhys != kNoPhys)
        scheduleResult(inst.dstPhys, done, cluster);
    inst.doneCycle = done;
    inst.completed = true;

    // Control resolution: a mispredicted transfer schedules recovery at
    // its execute cycle.
    if (inst.mispredicted) {
        Cycle resolve = _cycle + Cycle(_p.regreadCycles) + 1;
        Recovery rec;
        rec.kind = Recovery::Kind::BranchMispredict;
        rec.seq = inst.seq;
        rec.atCycle = resolve;
        rec.resumePc = inst.nextPc;
        rec.indirect =
            inst.inst.isIndirect() && !_p.bugUnderchargedJump;
        scheduleRecovery(rec);
        inst.doneCycle = std::max(inst.doneCycle, resolve);
    }
}

void
AlphaCore::issueLoad(DynInst &ld)
{
    ld.memIssued = true;

    bool is_fp = ld.inst.isFp();
    // Load-to-use latency tracks the configured D-cache hit latency
    // (fp loads pay one extra cycle, Table 1).
    int hit_lat = _p.mem.l1d.hitLatency + (is_fp ? 1 : 0);

    // Search older issued stores for a forwarding partner (the
    // seq-sorted index replaces the original full ROB scan).
    bool forwarded = storeForwardLookup(ld);
    if (_slowpath) {
        bool scan_forwarded = false;
        for (auto it = _rob.rbegin(); it != _rob.rend(); ++it) {
            if (it->seq >= ld.seq)
                continue;
            if (!it->inst.isStore() || it->wrongPath)
                continue;
            bool overlap = _p.approxMaskedStoreTrapAddr
                               ? overlapWord(it->effAddr, ld.effAddr)
                               : overlapExact(it->effAddr,
                                              it->inst.memBytes(),
                                              ld.effAddr,
                                              ld.inst.memBytes());
            if (it->memIssued && overlap) {
                // Store-to-load forwarding from the store queue.
                scan_forwarded = true;
                break;
            }
        }
        sim_assert(scan_forwarded == forwarded);
        forwarded = scan_forwarded;
    }

    Cycle hit_done = _cycle + Cycle(hit_lat);
    Cycle real_done;
    bool hit;

    if (forwarded) {
        hit = true;
        real_done = hit_done;
        ++_c.storeForwards;
    } else {
        MemAccessResult r = _mem->dataAccess(
            ld.effAddr, false, _cycle + Cycle(_p.regreadCycles));
        hit = r.l1Hit;
        if (r.pipelineStall) {
            // PAL-code DTLB refill stalls the machine front end.
            _fetchResumeAt =
                std::max(_fetchResumeAt, _cycle + r.pipelineStall);
            _mapBlockedUntil =
                std::max(_mapBlockedUntil, _cycle + r.pipelineStall);
        }
        real_done = hit ? hit_done : r.done;
        if (!hit && _p.bugExtraRegreadOnMiss)
            real_done += 1;
    }

    // Load-use (hit/miss) speculation.
    bool pred_hit = _loadUsePred->predictHit();
    ld.predictedHit = pred_hit;
    _loadUsePred->update(hit);

    if (_p.loadUseSpec && pred_hit) {
        // Consumers wake as if the load hits; a miss replays the window.
        if (ld.dstPhys != kNoPhys)
            scheduleResult(ld.dstPhys, hit_done, ld.cluster);
        if (!hit) {
            LoadUseCheck check;
            check.loadSeq = ld.seq;
            check.verifyAt = hit_done + 2;
            check.missDone = real_done;
            check.loadDst = ld.dstPhys;
            check.windowStart = hit_done;
            _loadUseChecks.push_back(check);
            _nextLoadUseVerify =
                std::min(_nextLoadUseVerify, check.verifyAt);
        }
    } else {
        // Conservative scheduling: consumers wait for the verified
        // outcome (two extra cycles on a hit).
        Cycle ready = hit ? hit_done + 2 : real_done;
        if (_p.loadUseSpec && !pred_hit && !hit)
            ready = real_done;
        if (ld.dstPhys != kNoPhys)
            scheduleResult(ld.dstPhys, ready, ld.cluster);
    }

    ld.dcacheHit = hit;
    ld.doneCycle = real_done;
    ld.completed = true;
    addIssuedRef(_issuedLoads, ld);

    if (!_p.mboxTraps)
        return;

    // Load-load order traps: this load may reveal that a younger load
    // to a conflicting address already executed out of order. The
    // trap victim is the youngest such load (first hit of the
    // original youngest-first ROB scan).
    const IssuedMemRef *ll_victim = youngestConflictingLoad(ld);
    if (_slowpath) {
        const DynInst *scan_victim = nullptr;
        for (auto it = _rob.rbegin(); it != _rob.rend(); ++it) {
            if (it->seq <= ld.seq || it->wrongPath)
                continue;
            if (!it->inst.isLoad() || !it->memIssued)
                continue;
            bool conflict = _p.bugMaskedLoadTrapAddr
                                ? overlapWord(it->effAddr, ld.effAddr)
                                : overlapExact(it->effAddr,
                                               it->inst.memBytes(),
                                               ld.effAddr,
                                               ld.inst.memBytes());
            if (conflict) {
                scan_victim = &*it;
                break;
            }
        }
        sim_assert((scan_victim != nullptr) == (ll_victim != nullptr));
        if (scan_victim)
            sim_assert(scan_victim->seq == ll_victim->seq);
    }
    if (ll_victim) {
        Recovery rec;
        rec.kind = Recovery::Kind::Trap;
        rec.seq = ll_victim->seq;
        rec.atCycle = _cycle + 2;
        rec.resumePc = ll_victim->pc;
        scheduleRecovery(rec);
        ++_c.loadOrderTraps;
    }

    // Golden-only mbox trap conditions: MAF pressure and same-set
    // concurrent misses flush the pipeline (the art pathology).
    if (_p.mboxExtraTraps && !hit && !forwarded) {
        std::erase_if(_outstandingMisses, [this](const OutstandingMiss &m) {
            return m.done <= _cycle;
        });
        Addr block = ld.effAddr >> 6;
        std::size_t sets =
            std::size_t(_p.mem.l1d.sizeBytes /
                        (_p.mem.l1d.blockBytes * _p.mem.l1d.assoc));
        std::size_t set = std::size_t(block & Addr(sets - 1));
        bool already = false;
        int same_set = 0;
        for (const OutstandingMiss &m : _outstandingMisses) {
            if (m.block == block)
                already = true;
            else if (m.set == set)
                same_set++;
        }
        // MAF exhaustion, or a third concurrent miss to one 2-way set
        // (no place to put the fill), flushes the pipe.
        bool trap = int(_outstandingMisses.size()) >=
                        _p.mem.l1d.mshrEntries ||
                    same_set >= _p.mem.l1d.assoc;
        if (!already)
            _outstandingMisses.push_back({block, set, real_done});
        if (trap) {
            Recovery rec;
            rec.kind = Recovery::Kind::Trap;
            rec.seq = ld.seq;
            rec.atCycle = _cycle + 2;
            rec.resumePc = ld.pc;
            scheduleRecovery(rec);
            ++_c.mboxExtraTraps;
        }
    }
}

void
AlphaCore::issueStore(DynInst &st)
{
    st.memIssued = true;
    st.doneCycle = _cycle + 1;
    st.completed = true;
    addIssuedRef(_issuedStores, st);
    auto unresolved = std::lower_bound(_unresolvedStores.begin(),
                                       _unresolvedStores.end(), st.seq);
    if (unresolved != _unresolvedStores.end() && *unresolved == st.seq)
        _unresolvedStores.erase(unresolved);

    if (!_p.mboxTraps)
        return;

    // Store replay trap: a younger load to a conflicting address already
    // executed; squash and refetch it, and teach the store-wait table.
    // The victim is the oldest such load (first hit of the original
    // oldest-first ROB scan).
    const IssuedMemRef *victim = oldestConflictingLoad(st);
    if (_slowpath) {
        const DynInst *scan_victim = nullptr;
        for (const DynInst &di : _rob) {
            if (di.seq <= st.seq || di.wrongPath)
                continue;
            if (!di.inst.isLoad() || !di.memIssued)
                continue;
            bool conflict = _p.approxMaskedStoreTrapAddr
                                ? overlapWord(di.effAddr, st.effAddr)
                                : overlapExact(di.effAddr,
                                               di.inst.memBytes(),
                                               st.effAddr,
                                               st.inst.memBytes());
            if (conflict) {
                scan_victim = &di;
                break;
            }
        }
        sim_assert((scan_victim != nullptr) == (victim != nullptr));
        if (scan_victim)
            sim_assert(scan_victim->seq == victim->seq);
    }
    if (victim) {
        Recovery rec;
        rec.kind = Recovery::Kind::Trap;
        rec.seq = victim->seq;
        rec.atCycle = _cycle + 2;
        rec.resumePc = victim->pc;
        rec.markStoreWait = true;
        rec.storeWaitPc = victim->pc;
        scheduleRecovery(rec);
        ++_c.storeReplayTraps;
    }
}

void
AlphaCore::unissueForReplay(const LoadUseCheck &check)
{
    // The load's destination becomes ready only when the miss returns
    // (possibly already in the past: clamp the wake-ups so a consumer
    // made issuable this very cycle is still scanned).
    if (check.loadDst != kNoPhys) {
        _scoreboard->setReady(check.loadDst, check.missDone, -1);
        noteSetReady(check.missDone);
    }

    Cycle recovery_cycles =
        _p.bugUnderchargedLoadUseRecovery
            ? Cycle(_p.loadUseRecoveryCycles - 1)
            : Cycle(_p.loadUseRecoveryCycles);

    // Poison propagation for dependents-only squash.
    std::vector<bool> poisoned(
        std::size_t(_p.physIntRegs + _p.physFpRegs), false);
    if (check.loadDst != kNoPhys)
        poisoned[std::size_t(check.loadDst)] = true;

    bool any = false;
    for (DynInst &di : _rob) {
        if (di.seq == check.loadSeq || !di.issued || di.retiredEarly)
            continue;
        if (di.issueCycle < check.windowStart ||
            di.issueCycle >= check.windowStart + 2)
            continue;
        bool squash;
        if (_p.squashDependentsOnly) {
            squash = false;
            for (int i = 0; i < di.numSrcs; i++)
                if (di.srcPhys[i] != kNoPhys &&
                    poisoned[std::size_t(di.srcPhys[i])])
                    squash = true;
        } else {
            squash = !di.wrongPath;
        }
        if (!squash)
            continue;

        any = true;
        di.issued = false;
        di.issueCycle = kNoCycle;
        di.completed = false;
        di.memIssued = false;
        di.replayBlockedUntil = check.verifyAt + recovery_cycles;
        if (di.inst.isLoad()) {
            removeIssuedRef(_issuedLoads, di.seq);
        } else if (di.inst.isStore()) {
            removeIssuedRef(_issuedStores, di.seq);
            auto it = std::lower_bound(_unresolvedStores.begin(),
                                       _unresolvedStores.end(), di.seq);
            if (!di.wrongPath && (it == _unresolvedStores.end() ||
                                  *it != di.seq))
                _unresolvedStores.insert(it, di.seq);
        }
        if (di.dstPhys != kNoPhys) {
            _scoreboard->setPending(di.dstPhys);
            poisoned[std::size_t(di.dstPhys)] = true;
        }
        if (di.inst.isFp() && !di.inst.isMem()) {
            _fpIq->reinsert(&di);
            _fpWakeAt = std::min(_fpWakeAt, di.replayBlockedUntil);
        } else {
            _intIq->reinsert(&di);
            _intWakeAt = std::min(_intWakeAt, di.replayBlockedUntil);
        }
        ++_c.loadUseReplays;
    }
    if (any)
        ++_c.loadUseViolations;
    // The load's result moved and replayed entries re-pend theirs.
    invalidateSelect();
}

// ---------------------------------------------------------------------
// Map (rename/dispatch)
// ---------------------------------------------------------------------

void
AlphaCore::doMap()
{
    if (_mapBlockedUntil > _cycle)
        return;

    int mapped = 0;
    while (mapped < _p.mapWidth && !_fetchQueue.empty()) {
        DynInst &front = _fetchQueue.front();
        if (front.readyForMap > _cycle)
            break;
        if (int(_rob.size()) >= _p.robEntries)
            break;

        bool is_nop = front.inst.isNop();
        bool remove_early = is_nop && _p.earlyUnopRetire &&
                            !_p.bugNoUnopRemoval;

        if (!remove_early) {
            // Queue space.
            bool fp_queue = front.inst.isFp() && !front.inst.isMem();
            IssueQueue &iq = fp_queue ? *_fpIq : *_intIq;
            if (iq.full())
                break;
            if (front.inst.isLoad() && _lqUsed >= _p.lqEntries)
                break;
            if (front.inst.isStore() && _sqUsed >= _p.sqEntries)
                break;
        }

        // Rename (correct path only).
        if (!front.wrongPath) {
            RegIndex dst = front.inst.dstReg();
            if (dst != kNoReg && !front.inst.isNop()) {
                bool fp = isFpRegIndex(dst);
                int free_regs = fp ? _rename->freeFpRegs()
                                   : _rename->freeIntRegs();
                if (_p.mapStall && free_regs < _p.minFreeRegs) {
                    // The rename table stalls three cycles when fewer
                    // than eight free names remain.
                    _mapBlockedUntil = _cycle + Cycle(_p.mapStallCycles);
                    ++_c.mapStalls;
                    _activity = true;
                    return;
                }
                if (free_regs == 0)
                    break;
            }
        }

        // Commit the dequeue.
        _rob.push_back(std::move(front));
        _fetchQueue.pop_front();
        DynInst &di = _rob.back();
        di.mapCycle = _cycle;

        if (!di.wrongPath) {
            RegIndex dst = di.inst.dstReg();
            // Resolve sources before allocating the destination so
            // "r1 = r1 + 1" reads the old mapping.
            RegIndex srcs[3];
            int n = di.inst.srcRegs(srcs);
            di.numSrcs = 0;
            if (!remove_early) {
                for (int i = 0; i < n; i++)
                    di.srcPhys[di.numSrcs++] = _rename->lookup(srcs[i]);
            }
            if (dst != kNoReg && !remove_early) {
                PhysReg old_phys = kNoPhys;
                PhysReg p = _rename->allocate(dst, old_phys);
                sim_assert(p != kNoPhys);
                di.dstPhys = p;
                di.oldPhys = old_phys;
                di.archDst = dst;
                _scoreboard->setPending(p);
            }
            if (di.inst.isLoad())
                _lqUsed++;
            if (di.inst.isStore()) {
                _sqUsed++;
                _unresolvedStores.push_back(di.seq);
            }
        }

        if (remove_early) {
            // Unops vanish at map: they hold a ROB slot but never issue.
            di.retiredEarly = true;
            di.issued = true;
            di.completed = true;
            di.issueCycle = _cycle;
            di.doneCycle = _cycle;
            ++_c.unopsRemoved;
        } else {
            bool fp_queue = di.inst.isFp() && !di.inst.isMem();
            di.cls = di.inst.opClass();
            // Op classes of one queue fit only that queue's pipes.
            di.fitMask = _fuPool->fitMask(di.cls, di.slottedUpper != 0,
                                          _p.slotRestrict);
            (fp_queue ? *_fpIq : *_intIq).insert(&di);
            Cycle &wake = fp_queue ? _fpWakeAt : _intWakeAt;
            wake = std::min(wake,
                            _cycle + Cycle(_p.mapToIssueCycles));
        }
        mapped++;
        ++_c.instsMapped;
    }
    if (mapped)
        _activity = true;
}

// ---------------------------------------------------------------------
// Fetch
// ---------------------------------------------------------------------

Cycle
AlphaCore::icacheTiming(Addr pc, Cycle now)
{
    MemAccessResult f = _mem->fetchAccess(pc, now);
    Cycle done = f.done;

    if (f.pipelineStall) {
        // PAL-code ITLB refill: the front end stalls outright.
        done += f.pipelineStall;
    }

    if (f.l1Hit) {
        Addr paddr = _mem->itlb().translateProbe(pc);
        int actual = _mem->icache().wayOf(paddr);
        int predicted = _wayPred->predict(pc);
        if (actual >= 0 && actual != predicted) {
            done += 2;      // way misprediction bubble
            if (_p.bugExtraWayPredCycle)
                done += 1;  // over-charged way-predictor access
            ++_c.wayMispredicts;
        }
        if (actual >= 0)
            _wayPred->update(pc, actual);
    } else {
        ++_c.icacheMissStalls;
        if (_p.bugExtraWayPredCycle)
            done += 1;
    }

    return done;
}

Addr
AlphaCore::predictControl(DynInst &di, Addr lp_next)
{
    // Returns the front end's chosen next-fetch PC given that the packet
    // cuts at this (predicted- or actually-taken) control instruction.
    const Instruction &inst = di.inst;
    bool early_target = _p.slotAdder && !_p.bugLateBranchRecovery;

    if (inst.isPcRelBranch()) {
        Addr target = _prog->pcOf(std::size_t(inst.target));
        if (early_target)
            return target;
        return lp_next;     // only the line predictor steers fetch
    }
    if (inst.isReturn()) {
        if (_p.speculativeUpdate)
            return _ras->pop();
        return _ras->peek();
    }
    // Indirect jump/call: the slot adder cannot help; the line predictor
    // supplies the target guess.
    return lp_next;
}

DynInst &
AlphaCore::fetchSlot(Cycle fetch_done)
{
    // doFetch guarantees room for a whole packet, so the fetch queue
    // never grows and the returned slot stays put until mapped.
    DynInst &di = _fetchQueue.emplace_back();
    di.seq = nextSeq();
    di.fetchCycle = _cycle;
    di.readyForMap = fetch_done + Cycle(_p.fetchToMapCycles);
    return di;
}

void
AlphaCore::doFetch()
{
    if (_cycle < _fetchResumeAt)
        return;
    if (_haltFetched && !_wrongPathMode)
        return;
    if (int(_fetchQueue.size()) + _p.fetchWidth > _p.fetchQueueEntries)
        return;
    if (!_wrongPathMode && _oracle->exhausted())
        return;

    _activity = true;
    if (_wrongPathMode)
        fetchWrongPath();
    else
        fetchCorrectPath();
    ++_c.fetchPackets;
}

void
AlphaCore::fetchCorrectPath()
{
    Addr packet_pc = _fetchPc;
    TRACE(Fetch, "[%llu] fetch pc=0x%llx",
          (unsigned long long)_cycle, (unsigned long long)packet_pc);
    if (_oracle->nextPc() != packet_pc)
        panic("%s: fetch/oracle desync at cycle %llu: fetchPc=0x%llx "
              "oracle=0x%llx committed=%llu",
              _p.name.c_str(), (unsigned long long)_cycle,
              (unsigned long long)packet_pc,
              (unsigned long long)_oracle->nextPc(),
              (unsigned long long)_committed);

    Cycle fdone = icacheTiming(packet_pc, _cycle);
    Addr oct_end = octawordEnd(packet_pc);
    Addr lp_next = _linePred->predict(packet_pc);

    // The packet is built in place at the fetch queue's tail.
    int n = 0;
    Addr pc_cur = packet_pc;
    DynInst *cut_inst = nullptr;     // control inst that ends the packet
    bool cut_predicted_taken = false;
    bool nt_mispredict = false;      // predicted NT, actually taken
    bool ends_halt = false;

    while (pc_cur < oct_end && n < _p.fetchWidth &&
           !_oracle->exhausted()) {
        const ExecutedInst &rec = _oracle->next();
        sim_assert(rec.pc == pc_cur);

        DynInst &di = fetchSlot(fdone);
        int slot = n++;
        di.oracleSeq = rec.seq;
        di.pc = rec.pc;
        di.inst = rec.inst;
        di.nextPc = rec.nextPc;
        di.taken = rec.taken;
        di.effAddr = rec.effAddr;
        di.halt = rec.halted;
        di.slottedUpper = slotAssignment(di.inst, slot);

        if (di.inst.isControl()) {
            // Direction prediction (conditional) / always-taken.
            bool pred_taken = true;
            if (di.inst.isCondBranch()) {
                di.hasBpSnap = true;
                pred_taken = _branchPred->predict(di.pc, di.bpSnap);
            }
            if (di.inst.isCall() || di.inst.isReturn()) {
                di.hasRasSnap = _p.speculativeUpdate;
                if (di.hasRasSnap)
                    di.rasSnap = _ras->snapshot();
            }
            if (di.inst.isCall() && _p.speculativeUpdate)
                _ras->push(di.pc + 4);
            di.predTaken = pred_taken;

            if (pred_taken) {
                cut_inst = &di;
                cut_predicted_taken = true;
                break;
            }
            if (rec.taken) {
                // Predicted not-taken, actually taken: a direction
                // mispredict. Fetch believes nothing happened and keeps
                // streaming sequentially (wrong path).
                di.mispredicted = true;
                cut_inst = &di;
                nt_mispredict = true;
                break;
            }
            // Correctly predicted not-taken: the packet continues.
        } else if (rec.halted) {
            ends_halt = true;
            break;
        }
        pc_cur += 4;
    }

    if (n == 0) {
        // Nothing fetched (oracle exhausted at packet start).
        return;
    }

    Cycle bubbles = 0;

    if (ends_halt) {
        _haltFetched = true;
        _fetchResumeAt = fdone;
        return;
    }

    if (nt_mispredict) {
        // Fill the rest of the octaword with wrong-path slots and keep
        // fetching sequentially until the branch resolves.
        Addr wp = cut_inst->pc + 4;
        while (wp < oct_end && n < _p.fetchWidth) {
            DynInst &wdi = fetchSlot(fdone);
            wdi.pc = wp;
            wdi.inst = _prog->fetch(wp);
            wdi.wrongPath = true;
            wdi.slottedUpper = slotAssignment(wdi.inst, n++);
            wp += 4;
        }
        cut_inst->predNextFetch = oct_end;
        _wrongPathMode = true;
        _fetchPc = oct_end;
        ++_c.directionMispredicts;
        _fetchResumeAt = fdone;
        return;
    }

    if (cut_predicted_taken) {
        Addr frontend_next = predictControl(*cut_inst, lp_next);
        cut_inst->predNextFetch = frontend_next;

        bool early_target = _p.slotAdder && !_p.bugLateBranchRecovery;
        bool slot_steered =
            (cut_inst->inst.isPcRelBranch() && early_target) ||
            cut_inst->inst.isReturn();
        if (slot_steered && frontend_next != lp_next) {
            // Branch predictor / RAS overrides the line predictor: one
            // bubble while fetch resteers (slot miss).
            bubbles += 1;
            ++_c.slotMisses;
        }
        if (_p.speculativeUpdate && slot_steered &&
            frontend_next != lp_next) {
            // Speculative line training applies only when the slot
            // stage has new information (an override); reinforcing the
            // line predictor's own guess would fight the recovery-time
            // correction.
            _linePred->speculativeTrain(packet_pc, frontend_next);
        } else if (!_p.speculativeUpdate) {
            cut_inst->lpTrainPc = packet_pc;
            cut_inst->lpTrainNext =
                cut_inst->taken ? cut_inst->nextPc : cut_inst->pc + 4;
        }

        if (_p.bugOctawordSquashPenalty &&
            (cut_inst->pc + 4) < oct_end) {
            // Buggy one-cycle charge for clearing the squashed slots
            // after a taken branch inside the octaword.
            bubbles += 1;
        }

        Addr actual_next =
            cut_inst->taken ? cut_inst->nextPc : cut_inst->pc + 4;
        if (frontend_next == actual_next) {
            _fetchPc = frontend_next;
        } else {
            // Target or direction mispredict: fetch goes down the
            // predicted (wrong) path until the transfer resolves.
            cut_inst->mispredicted = true;
            TRACE(Predictor,
                  "[%llu] mispredict seq=%llu pc=0x%llx pred=0x%llx "
                  "actual=0x%llx",
                  (unsigned long long)_cycle,
                  (unsigned long long)cut_inst->seq,
                  (unsigned long long)cut_inst->pc,
                  (unsigned long long)frontend_next,
                  (unsigned long long)actual_next);
            _wrongPathMode = true;
            _fetchPc = frontend_next;
            ++(cut_inst->inst.isCondBranch() ? _c.directionMispredicts
                                              : _c.targetMispredicts);
        }
        _fetchResumeAt = fdone + bubbles;
        return;
    }

    // The packet ran to the end of the octaword with no (predicted or
    // actual) taken control transfer: sequential flow.
    Addr actual_next = oct_end;
    _fetchPc = actual_next;
    if (lp_next == actual_next) {
        _fetchResumeAt = fdone;
    } else {
        // Line predictor misfired on straight-line code; the slot stage
        // notices there is no branch to justify the jump and resteers —
        // unless the buggy first-cut simulator is modeled, which only
        // discovered line mispredictions after execute and initiated a
        // full rollback (Section 3.4).
        ++_c.lineMisfires;
        Cycle bubble = 2;
        if (_p.bugLateBranchRecovery)
            bubble = 7 + Cycle(_p.lateRecoveryExtraCycles);
        _fetchResumeAt = fdone + bubble;
    }
    _linePred->train(packet_pc, actual_next);
}

void
AlphaCore::fetchWrongPath()
{
    Addr packet_pc = _fetchPc;
    Cycle fdone = icacheTiming(packet_pc, _cycle);
    Addr oct_end = octawordEnd(packet_pc);
    Addr lp_next = _linePred->predict(packet_pc);

    int n = 0;
    Addr pc_cur = packet_pc;
    Addr next_fetch = oct_end;
    Cycle bubbles = 0;

    while (pc_cur < oct_end && n < _p.fetchWidth) {
        DynInst &di = fetchSlot(fdone);
        di.pc = pc_cur;
        di.inst = _prog->fetch(pc_cur);
        di.wrongPath = true;
        di.slottedUpper = slotAssignment(di.inst, n++);

        if (di.inst.isControl()) {
            bool pred_taken = true;
            if (di.inst.isCondBranch()) {
                di.hasBpSnap = true;
                pred_taken = _branchPred->predict(di.pc, di.bpSnap);
            }
            if ((di.inst.isCall() || di.inst.isReturn()) &&
                _p.speculativeUpdate) {
                di.hasRasSnap = true;
                di.rasSnap = _ras->snapshot();
            }
            if (di.inst.isCall() && _p.speculativeUpdate)
                _ras->push(di.pc + 4);
            di.predTaken = pred_taken;

            if (pred_taken) {
                next_fetch = predictControl(di, lp_next);
                break;
            }
        }
        pc_cur += 4;
    }

    if (next_fetch == oct_end && lp_next != oct_end)
        next_fetch = lp_next;   // line predictor steers the wrong path

    _fetchPc = next_fetch;
    _fetchResumeAt = fdone + bubbles;
    ++_c.wrongPathPackets;
}

} // namespace simalpha
