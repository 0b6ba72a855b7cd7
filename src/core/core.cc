#include "core.hh"

#include <algorithm>
#include <cstdio>

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
slotAssignment(const DecodedInst &inst, int packet_slot)
{
    switch (inst.cls) {
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
    : TimedCore(params.name), _p(params), _c(_stats),
      _ring(std::size_t(std::max(params.robEntries, 1) +
                        std::max(params.fetchQueueEntries, 1)))
{
    if (_ring.capacity() > SlotSet::kMaxSlots)
        fatal("%s: robEntries + fetchQueueEntries must not exceed %zu",
              _p.name.c_str(), SlotSet::kMaxSlots);
}

AlphaCore::BoundCounters::BoundCounters(stats::Group &g)
    : branchesRetired(g.counter("branches_retired")),
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
AlphaCore::resetMachine()
{
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
        sim_assert(_fuPool->numPipes() <= 8);
        for (int pipe = 0; pipe < _fuPool->numPipes(); pipe++) {
            int q = _fuPool->pipeIsFp(pipe);
            _pipeQueue[pipe] = std::uint8_t(q);
            _pipeReady[pipe] =
                &_wheel[q].ready(q ? 0 : _fuPool->pipeCluster(pipe));
            _queuePipes[q] |= std::uint8_t(1u << pipe);
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

    _mapBlockedUntil = 0;
    _lqUsed = 0;
    _sqUsed = 0;
    _ring.clear();
    _robSize = 0;
    _recovery.reset();
    _loadUseChecks.clear();
    _outstandingMisses.clear();

    _intWakeAt = 0;
    _fpWakeAt = 0;
    _nextLoadUseVerify = kNoCycle;
    _issuedStores.clear();
    _issuedLoads.clear();
    _cacheReadiness = true;
    _waiters.assign(std::size_t(_p.physIntRegs + _p.physFpRegs), nullptr);
    invalidateSelect();
    _unresolvedStores.clear();
}

void
AlphaCore::runLoop(const Program &program)
{
    // The budget is checked after every tick, the strike inside it.
    const Cycle budget = _inject.enabled() ? _injectBudget : 0;
    while (!_finished && (_maxInsts == 0 || _committed < _maxInsts)) {
        cycleTick();
        if (_p.watchdogCycles &&
            _cycle - _lastCommitCycle > _p.watchdogCycles)
            throw DeadlockError(deadlockSnapshot(program));
        checkBudget(budget);
    }
}

DeadlockInfo
AlphaCore::deadlockSnapshot(const Program &program) const
{
    DeadlockInfo info = deadlockHeader(program, _robSize);
    if (_robSize) {
        const DynInst &h = _ring.front();
        char buf[192];
        std::snprintf(buf, sizeof(buf),
                      "seq=%llu pc=0x%llx %s wp=%d issued=%d "
                      "done=%llu mispred=%d",
                      (unsigned long long)h.seq,
                      (unsigned long long)h.pc,
                      program.fetch(h.pc).disassemble().c_str(),
                      int(h.wrongPath),
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
                  fetchQueueSize(),
                  (unsigned long long)_mapBlockedUntil,
                  int(_recovery.has_value()), _intIq->size(),
                  _fpIq->size());
    info.detail = buf;
    return info;
}

void
AlphaCore::cycleTick()
{
    if (skipIdle([this] { return fastForwardTarget(); }))
        return;

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
AlphaCore::mapEventCycle() const
{
    // Mirrors doMap's first-iteration gates. Conditions that only a
    // tracked event can clear (ROB/queue space) report kNoCycle; the
    // event that clears them is in nextEventCycle()'s min.
    if (!fetchQueueSize())
        return kNoCycle;
    const DynInst &front = _ring[_robSize];
    Cycle cand = std::max(front.readyForMap, _mapBlockedUntil);
    if (int(_robSize) >= _p.robEntries)
        return kNoCycle;
    bool is_nop = front.dec->isNop();
    bool remove_early =
        is_nop && _p.earlyUnopRetire && !_p.bugNoUnopRemoval;
    if (!remove_early) {
        const IssueQueue &iq = front.dec->isFpQueue() ? *_fpIq : *_intIq;
        if (iq.full())
            return kNoCycle;
        if (front.dec->isLoad() && _lqUsed >= _p.lqEntries)
            return kNoCycle;
        if (front.dec->isStore() && _sqUsed >= _p.sqEntries)
            return kNoCycle;
    }
    if (!front.wrongPath) {
        RegIndex dst = front.dec->archDst;
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
    if (int(fetchQueueSize()) + _p.fetchWidth > _p.fetchQueueEntries)
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
    if (_robSize) {
        const DynInst &head = _ring.front();
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
    // Most cycles some queue can issue next cycle: no jump, and no
    // need for the full event minimum.
    if (std::min(_intWakeAt, _fpWakeAt) <= _cycle + 1)
        return 0;
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
    IssuedMemRef ref{inst.seq, inst.effAddr, inst.dec->memBytes, inst.pc};
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
                                          ld.dec->memBytes);
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
                                           ld.dec->memBytes);
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
                                           st.dec->memBytes);
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
    while (retired < _p.retireWidth && _robSize) {
        DynInst &head = _ring.front();
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
        if (head.dec->isStore()) {
            _mem->dataAccess(head.effAddr, true, _cycle);
            _sqUsed--;
            removeIssuedRef(_issuedStores, head.seq);
            // Only a flipped memIssued retires a store unresolved.
            if (!_unresolvedStores.empty() &&
                _unresolvedStores.front() == head.seq)
                _unresolvedStores.erase(_unresolvedStores.begin());
        }
        if (head.dec->isLoad()) {
            _lqUsed--;
            removeIssuedRef(_issuedLoads, head.seq);
        }
        if (head.dec->isCondBranch() && head.hasBpSnap)
            _branchPred->update(head.pc, head.taken, head.bpSnap);
        if (!_p.speculativeUpdate) {
            if (head.lpTrainPc != kNoAddr)
                _linePred->train(head.lpTrainPc, head.lpTrainNext);
            if (head.dec->isCall())
                _ras->push(head.pc + 4);
            else if (head.dec->isReturn())
                _ras->pop();
        }
        _rename->release(head.oldPhys);
        _oracle->retireBefore(head.oracleSeq + 1);

        if (head.dec->isControl())
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
        bool halt = head.halt;
        _ring.pop_front();
        _robSize--;
        if (halt) {
            _finished = true;
            return;
        }
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
        for (DynInst &di : rob() | std::views::reverse) {
            if (di.seq == rec.seq) {
                causer = &di;
                break;
            }
        }
        if (causer) {
            if (causer->dec->isCondBranch() && causer->hasBpSnap)
                _branchPred->recover(causer->bpSnap, causer->taken);
            _linePred->train(causer->pc, rec.resumePc);
            ++(causer->dec->isIndirect() ? _c.jumpMispredicts
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

    _intIq->squashFrom(seq);
    _fpIq->squashFrom(seq);

    // Youngest first, so predictor snapshots unwind in reverse order:
    // the un-mapped fetch-queue suffix, then the ROB.
    InstSeq lowest_oracle = kNoCycle;
    while (!_ring.empty() && _ring.back().seq >= seq) {
        DynInst &di = _ring.back();
        if (di.hasBpSnap)
            _branchPred->restore(di.bpSnap);
        if (di.hasRasSnap)
            _ras->restore(di.rasSnap);
        if (_ring.size() == _robSize) {
            if (!di.wrongPath) {
                if (di.dstPhys != kNoPhys) {
                    _scoreboard->setReadyNow(di.dstPhys);
                    _rename->undo(di.archDst, di.dstPhys, di.oldPhys);
                }
                if (di.dec->isLoad())
                    _lqUsed--;
                if (di.dec->isStore())
                    _sqUsed--;
                lowest_oracle = di.oracleSeq;
            }
            ++_c.instsSquashed;
            _robSize--;
        }
        _ring.pop_back();
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
    // entries may sit in the select state: rebuild it.
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
    for (ReadyWheel<2> &wheel : _wheel)
        wheel.clear(_cycle);
    std::fill(_waiters.begin(), _waiters.end(), nullptr);
    for (int q = 0; q < 2; q++)
        for (DynInst *inst : (q ? *_fpIq : *_intIq).entries())
            if (!inst->issued && !inst->retiredEarly)
                evaluate(*inst, q);
}

void
AlphaCore::scheduleResult(PhysReg dst, Cycle ready, int cluster)
{
    bool was_pending = _scoreboard->pending(dst);
    _scoreboard->setReady(dst, ready, cluster);
    noteSetReady(ready);
    if (!_cacheReadiness || !was_pending || ready <= _cycle) {
        // A consumer may have counted the old ready cycle, or may now
        // issue in this very cycle on a later pipe; after a strike
        // nothing parks, so every write rebuilds.
        invalidateSelect();
        return;
    }
    DynInst *w = _waiters[std::size_t(dst)];
    _waiters[std::size_t(dst)] = nullptr;
    while (w) {
        DynInst *next = w->nextWaiter;
        evaluate(*w, w->dec->isFpQueue());
        w = next;
    }
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

void
AlphaCore::evaluate(DynInst &inst, int q)
{
    Cycle at[2];
    PhysReg pending = computeIssueCycles(inst, q, at);
    if (pending != kNoPhys) {
        if (_cacheReadiness) {
            // Park until this source is scheduled.
            inst.nextWaiter = _waiters[std::size_t(pending)];
            _waiters[std::size_t(pending)] = &inst;
        }
        return;
    }
    inst.wheelBucket[1] = kNoBucket;
    for (int c = 0; c < (q ? 1 : 2); c++)
        inst.wheelBucket[c] = _wheel[q].place(inst.slot, std::size_t(c),
                                              at[c], _cycle, inst.seq);
}

void
AlphaCore::verifySelectState() const
{
    SlotSet want[2][2];
    for (int q = 0; q < 2; q++) {
        for (const DynInst *inst : (q ? *_fpIq : *_intIq).entries()) {
            if (inst->issued || inst->retiredEarly)
                continue;
            Cycle at[2];
            computeIssueCycles(*inst, q, at);
            for (int c = 0; c < 2; c++)
                if (at[c] <= _cycle)
                    want[q][c].set(inst->slot);
        }
        for (int c = 0; c < 2; c++)
            sim_assert(want[q][c] == _wheel[q].ready(std::size_t(c)));
    }
    std::vector<InstSeq> unresolved;
    for (const DynInst &d : rob())
        if (!d.wrongPath && d.dec->isStore() && !d.memIssued)
            unresolved.push_back(d.seq);
    sim_assert(unresolved == _unresolvedStores);
}

DynInst *
AlphaCore::selectFor(int pipe, int *consults)
{
    // Store-wait is judged here, at the pipe's turn: a store issued on
    // an earlier pipe this cycle can release a younger load, and the
    // predictor's periodic clear happens on its first consult.
    bool store_wait = _p.mboxTraps && _p.storeWaitTable;
    std::ptrdiff_t slot = SlotSet::first(
        *_pipeReady[pipe], _fits[pipe], _ring.headSlot(),
        [&](std::size_t s) {
            DynInst &d = _ring.atSlot(s);
            if (!store_wait || d.wrongPath || !d.dec->isLoad())
                return true;
            ++*consults;
            return storeWaitClear(d);
        });
    return slot < 0 ? nullptr : &_ring.atSlot(std::size_t(slot));
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
        if (!_fuPool->pipeCanIssue(pipe, inst->dec->cls,
                                   inst->slottedUpper != 0,
                                   _p.slotRestrict, _cycle))
            continue;
        if (!inst->wrongPath) {
            // Operands must have reached this pipe's cluster.
            Cycle r = operandReadyCycle(*inst, rc);
            if (r == kNoCycle || r > _cycle)
                continue;
            if (inst->dec->isLoad() && _p.mboxTraps &&
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

    // Bring the ready sets to this cycle: after a strike rebuild them
    // from the queues, else set the bits whose listed cycle has come.
    // A listed entry is stale once its slot holds another or it issued.
    auto waiting = [this](std::size_t slot, InstSeq seq) {
        const DynInst &d = _ring.atSlot(slot);
        return d.seq == seq && !d.issued;
    };
    if (_cacheReadiness)
        for (ReadyWheel<2> &wheel : _wheel)
            wheel.drain(_cycle, waiting);
    else
        invalidateSelect();

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
        const int pipes = _fuPool->numPipes();
        for (int pipe = 0; pipe < pipes; pipe++) {
            int q = _pipeQueue[pipe];
            if (!scan[q])
                continue;
            int consults = 0;
            DynInst *inst = (free >> pipe & 1u) && _pipeReady[pipe]->any()
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
            for (int c = 0; c < 2; c++)
                _wheel[q].unplace(inst->slot, std::size_t(c),
                                  inst->wheelBucket[c]);
            int cluster = q ? -1 : _fuPool->pipeCluster(pipe);
            _fuPool->reservePipe(pipe, inst->dec->cls, _cycle);
            performIssue(*inst, cluster);
            (q ? *_fpIq : *_intIq).noteIssued(_cycle);
            issued[q] = true;
            _activity = true;
            if (_slowpath)
                sim_assert(wake0[q] <= _cycle);
        }
    }

    // A queue that issued must be rescanned next cycle; a queue that
    // was scanned fruitlessly gets an exact bound from its select
    // state; a queue that was skipped keeps its bound (clamped by
    // noteSetReady as operands get scheduled).
    _intWakeAt = issued[0] ? _cycle + 1
                 : scan[0] ? _wheel[0].wakeAfter(_cycle, waiting)
                           : _intWakeAt;
    _fpWakeAt = issued[1] ? _cycle + 1
                : scan[1] ? _wheel[1].wakeAfter(_cycle, waiting)
                          : _fpWakeAt;
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
    for (const DynInst &older : rob()) {
        if (older.seq >= ld.seq)
            break;
        if (older.dec->isStore() && !older.memIssued)
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
        inst.doneCycle = _cycle + Cycle(inst.dec->latency);
        inst.completed = true;
        return;
    }

    if (inst.dec->isLoad()) {
        issueLoad(inst);
        return;
    }
    if (inst.dec->isStore()) {
        issueStore(inst);
        return;
    }

    int latency = inst.dec->latency;
    if (_p.bugShortMulLatency && inst.dec->cls == OpClass::IntMul)
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
            inst.dec->isIndirect() && !_p.bugUnderchargedJump;
        scheduleRecovery(rec);
        inst.doneCycle = std::max(inst.doneCycle, resolve);
    }
}

void
AlphaCore::issueLoad(DynInst &ld)
{
    ld.memIssued = true;

    bool is_fp = ld.dec->cls == OpClass::FpLoad;
    // Load-to-use latency tracks the configured D-cache hit latency
    // (fp loads pay one extra cycle, Table 1).
    int hit_lat = _p.mem.l1d.hitLatency + (is_fp ? 1 : 0);

    // Search older issued stores for a forwarding partner (the
    // seq-sorted index replaces the original full ROB scan).
    bool forwarded = storeForwardLookup(ld);
    if (_slowpath) {
        bool scan_forwarded = false;
        for (const DynInst &st : rob() | std::views::reverse) {
            if (st.seq >= ld.seq)
                continue;
            if (!st.dec->isStore() || st.wrongPath)
                continue;
            bool overlap = _p.approxMaskedStoreTrapAddr
                               ? overlapWord(st.effAddr, ld.effAddr)
                               : overlapExact(st.effAddr,
                                              st.dec->memBytes,
                                              ld.effAddr,
                                              ld.dec->memBytes);
            if (st.memIssued && overlap) {
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
        for (const DynInst &younger : rob() | std::views::reverse) {
            if (younger.seq <= ld.seq || younger.wrongPath)
                continue;
            if (!younger.dec->isLoad() || !younger.memIssued)
                continue;
            bool conflict = _p.bugMaskedLoadTrapAddr
                                ? overlapWord(younger.effAddr, ld.effAddr)
                                : overlapExact(younger.effAddr,
                                               younger.dec->memBytes,
                                               ld.effAddr,
                                               ld.dec->memBytes);
            if (conflict) {
                scan_victim = &younger;
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
        for (const DynInst &di : rob()) {
            if (di.seq <= st.seq || di.wrongPath)
                continue;
            if (!di.dec->isLoad() || !di.memIssued)
                continue;
            bool conflict = _p.approxMaskedStoreTrapAddr
                                ? overlapWord(di.effAddr, st.effAddr)
                                : overlapExact(di.effAddr,
                                               di.dec->memBytes,
                                               st.effAddr,
                                               st.dec->memBytes);
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
    for (DynInst &di : rob()) {
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
        if (di.dec->isLoad()) {
            removeIssuedRef(_issuedLoads, di.seq);
        } else if (di.dec->isStore()) {
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
        if (di.dec->isFpQueue()) {
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
    while (mapped < _p.mapWidth && fetchQueueSize()) {
        DynInst &di = _ring[_robSize];
        const DecodedInst &dec = *di.dec;
        if (di.readyForMap > _cycle)
            break;
        if (int(_robSize) >= _p.robEntries)
            break;

        bool remove_early = dec.isNop() && _p.earlyUnopRetire &&
                            !_p.bugNoUnopRemoval;

        if (!remove_early) {
            // Queue space.
            IssueQueue &iq = dec.isFpQueue() ? *_fpIq : *_intIq;
            if (iq.full())
                break;
            if (dec.isLoad() && _lqUsed >= _p.lqEntries)
                break;
            if (dec.isStore() && _sqUsed >= _p.sqEntries)
                break;
        }

        // Rename (correct path only).
        if (!di.wrongPath) {
            RegIndex dst = dec.archDst;
            if (dst != kNoReg && !dec.isNop()) {
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

        // Commit the dequeue: the entry joins the ROB in place.
        _robSize++;
        di.mapCycle = _cycle;

        if (!di.wrongPath) {
            RegIndex dst = dec.archDst;
            // Resolve sources before allocating the destination so
            // "r1 = r1 + 1" reads the old mapping.
            di.numSrcs = 0;
            if (!remove_early) {
                for (int i = 0; i < dec.numSrcs; i++)
                    di.srcPhys[di.numSrcs++] = _rename->lookup(dec.srcs[i]);
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
            if (dec.isLoad())
                _lqUsed++;
            if (dec.isStore()) {
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
            int q = dec.isFpQueue();
            // Op classes of one queue fit only that queue's pipes.
            di.fitMask = _fuPool->fitMask(dec.cls, di.slottedUpper != 0,
                                          _p.slotRestrict);
            // Pipes of the other queue never draw from this queue's
            // ready sets, so their fit bits are left alone.
            for (std::uint8_t pipes = _queuePipes[q]; pipes;
                 pipes &= std::uint8_t(pipes - 1)) {
                int pipe = std::countr_zero(pipes);
                _fits[pipe].assign(di.slot, di.fitMask >> pipe & 1u);
            }
            (q ? *_fpIq : *_intIq).insert(&di);
            evaluate(di, q);
            Cycle &wake = q ? _fpWakeAt : _intWakeAt;
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
    const DecodedInst &inst = *di.dec;
    bool early_target = _p.slotAdder && !_p.bugLateBranchRecovery;

    if (inst.isPcRel()) {
        if (early_target)
            return inst.targetPc;
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
    sim_assert(_ring.size() < _ring.capacity());
    DynInst &di = _ring.emplace_back();
    di.seq = nextSeq();
    di.slot = std::uint16_t(_ring.slotOf(di));
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
    if (int(fetchQueueSize()) + _p.fetchWidth > _p.fetchQueueEntries)
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
        di.dec = rec.dec;
        di.nextPc = rec.nextPc;
        di.taken = rec.taken;
        di.effAddr = rec.effAddr;
        di.halt = rec.halted;
        di.slottedUpper = slotAssignment(*di.dec, slot);

        if (di.dec->isControl()) {
            // Direction prediction (conditional) / always-taken.
            bool pred_taken = true;
            if (di.dec->isCondBranch()) {
                di.hasBpSnap = true;
                pred_taken = _branchPred->predict(di.pc, di.bpSnap);
            }
            if (di.dec->isCall() || di.dec->isReturn()) {
                di.hasRasSnap = _p.speculativeUpdate;
                if (di.hasRasSnap)
                    di.rasSnap = _ras->snapshot();
            }
            if (di.dec->isCall() && _p.speculativeUpdate)
                _ras->push(di.pc + 4);

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
            wdi.dec = &_prog->decodedAt(wp);
            wdi.wrongPath = true;
            wdi.slottedUpper = slotAssignment(*wdi.dec, n++);
            wp += 4;
        }
        _wrongPathMode = true;
        _fetchPc = oct_end;
        ++_c.directionMispredicts;
        _fetchResumeAt = fdone;
        return;
    }

    if (cut_predicted_taken) {
        Addr frontend_next = predictControl(*cut_inst, lp_next);

        bool early_target = _p.slotAdder && !_p.bugLateBranchRecovery;
        bool slot_steered =
            (cut_inst->dec->isPcRel() && early_target) ||
            cut_inst->dec->isReturn();
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
            ++(cut_inst->dec->isCondBranch() ? _c.directionMispredicts
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
        di.dec = &_prog->decodedAt(pc_cur);
        di.wrongPath = true;
        di.slottedUpper = slotAssignment(*di.dec, n++);

        if (di.dec->isControl()) {
            bool pred_taken = true;
            if (di.dec->isCondBranch()) {
                di.hasBpSnap = true;
                pred_taken = _branchPred->predict(di.pc, di.bpSnap);
            }
            if ((di.dec->isCall() || di.dec->isReturn()) &&
                _p.speculativeUpdate) {
                di.hasRasSnap = true;
                di.rasSnap = _ras->snapshot();
            }
            if (di.dec->isCall() && _p.speculativeUpdate)
                _ras->push(di.pc + 4);

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
