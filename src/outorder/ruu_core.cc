#include "ruu_core.hh"

#include <algorithm>
#include <cstdio>

#include "common/logging.hh"

namespace simalpha {

RuuCoreParams
RuuCoreParams::simOutorder()
{
    RuuCoreParams p;
    p.name = "sim-outorder";
    p.mem = MemorySystemParams::ds10l();
    // The paper's configuration: similarly configured caches, a 62-cycle
    // flat DRAM, combined 64-entry LSQ, 64-entry RUU, no victim buffer
    // or hardware I-prefetch (SimpleScalar models neither).
    p.mem.l1i.prefetchLines = 0;
    p.mem.l1d.victimEntries = 0;
    p.mem.dram.flatLatency = 62;
    return p;
}

RuuCore::RuuCore(const RuuCoreParams &params)
    : TimedCore(params.name), _p(params), _c(_stats),
      _fetchBuf(std::size_t(std::max(4 * params.fetchWidth, 1))),
      _ruu(std::size_t(std::max(params.ruuEntries, 1)))
{
}

RuuCore::BoundCounters::BoundCounters(stats::Group &g)
    : branchMispredicts(g.counter("branch_mispredicts")),
      instsIssued(g.counter("insts_issued")),
      storeForwards(g.counter("store_forwards")),
      instsDispatched(g.counter("insts_dispatched"))
{
}

void
RuuCore::resetMachine()
{
    if (!_mem) {
        _mem = std::make_unique<MemorySystem>(_p.mem);
        // The paper gives sim-outorder a 2-level adaptive predictor
        // "with a similar quantity of state" to the Alpha's tournament;
        // we model that as the same tournament structure (so prediction
        // quality is comparable and the remaining differences are
        // microarchitectural).
        _branchPred = std::make_unique<TournamentPredictor>(true);
        _btb = std::make_unique<Btb>(512, 4);
        _ras = std::make_unique<ReturnAddressStack>();
    } else {
        _mem->reset();
        _branchPred->reset();
        _btb->reset();
        _ras->reset();
    }

    _regWriter.assign(kNumIntRegs + kNumFpRegs, kNoCycle);
    _regWriterPos.assign(kNumIntRegs + kNumFpRegs, kNoPos);
    _fetchBuf.clear();
    _ruu.clear();
    _ruuHeadPos = 0;
    _issuedBefore = 0;
    _storeByWord.clear();
    _recovery.reset();

    _lsqUsed = 0;
    _inflightDst = 0;
    _issueWakeAt = 0;
    _selectByReadySet = _ruu.capacity() <= SlotSet::kMaxSlots;
    _wheel.clear(_cycle);
}

void
RuuCore::runLoop(const Program &program)
{
    // The budget is checked before each cycle's stages, after the
    // strike; the watchdog after them.
    const Cycle budget = _inject.enabled() ? _injectBudget : 0;
    while (!_finished && (_maxInsts == 0 || _committed < _maxInsts)) {
        // The armed flip strikes before the stages of its cycle, on
        // the slow and fast paths alike (fastForwardTarget never
        // jumps across a pending strike).
        if (_injectPending && _cycle >= _inject.cycle)
            applyInjection();
        checkBudget(budget);
        if (skipIdle([this] { return fastForwardTarget(); })) {
            if (_p.watchdogCycles &&
                _cycle - _lastCommitCycle > _p.watchdogCycles)
                throw DeadlockError(deadlockSnapshot(program));
            continue;
        }
        doRecovery();
        doCommit();
        doIssue();
        doDispatch();
        doFetch();
        if (_slowpath && _cycle < _ffCheckUntil)
            sim_assert(!_activity);
        _cycle++;
        if (_p.watchdogCycles &&
            _cycle - _lastCommitCycle > _p.watchdogCycles)
            throw DeadlockError(deadlockSnapshot(program));
    }
}

DeadlockInfo
RuuCore::deadlockSnapshot(const Program &program) const
{
    DeadlockInfo info = deadlockHeader(program, _ruu.size());
    if (!_ruu.empty()) {
        const RuuInst &h = _ruu.front();
        char buf[192];
        std::snprintf(buf, sizeof(buf),
                      "seq=%llu pc=0x%llx %s wp=%d issued=%d done=%llu",
                      (unsigned long long)h.seq,
                      (unsigned long long)h.pc,
                      program.fetch(h.pc).disassemble().c_str(),
                      int(h.wrongPath),
                      int(h.issued), (unsigned long long)h.doneCycle);
        info.oldestInst = buf;
    }
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "resumeAt=%llu wrongPath=%d haltFetched=%d fb=%zu "
                  "recovery=%d",
                  (unsigned long long)_fetchResumeAt,
                  int(_wrongPathMode), int(_haltFetched),
                  _fetchBuf.size(), int(_recovery.has_value()));
    info.detail = buf;
    return info;
}

void
RuuCore::doRecovery()
{
    if (!_recovery || _recovery->atCycle > _cycle)
        return;
    PendingRecovery rec = *_recovery;
    _recovery.reset();

    while (!_fetchBuf.empty() && _fetchBuf.back().seq > rec.seq)
        _fetchBuf.pop_back();
    while (!_ruu.empty() && _ruu.back().seq > rec.seq) {
        // (The assertion's text is part of a crashed cell's artifact.)
        sim_assert(_ruu.back().wrongPath);
        const RuuInst &squashed = _ruu.back();
        if (_selectByReadySet) {
            // A wrong-path entry waits for no producer and is ready the
            // cycle after dispatch: it may sit in the ready set or in
            // the wheel, never on a wake-up list or the heap.
            _wheel.unplace(_ruu.slotOf(squashed), 0, squashed.wheelBucket);
        }
        if (squashed.dec->isMem())
            _lsqUsed--;
        _ruu.pop_back();
    }
    _issuedBefore = std::min(_issuedBefore, _ruuHeadPos + _ruu.size());
    _fetchPc = rec.resumePc;
    _fetchResumeAt =
        std::max(_fetchResumeAt, _cycle + Cycle(_p.mispredictExtra));
    _wrongPathMode = false;
    ++_c.branchMispredicts;
    _activity = true;
}

void
RuuCore::doCommit()
{
    int committed = 0;
    while (committed < _p.commitWidth && !_ruu.empty()) {
        RuuInst &head = _ruu.front();
        if (head.wrongPath) {
            sim_assert(_recovery.has_value());
            break;
        }
        if (!head.completed || head.doneCycle > _cycle)
            break;
        if (head.mispredicted && _recovery &&
            _recovery->seq == head.seq)
            break;

        if (head.dec->isStore()) {
            _mem->dataAccess(head.effAddr, true, _cycle);
            auto it = _storeByWord.find(head.effAddr >> 3);
            if (it != _storeByWord.end() && it->second == _ruuHeadPos)
                _storeByWord.erase(it);
        }
        if (head.dec->isCondBranch() && head.hasBpSnap)
            _branchPred->update(head.pc, head.taken, head.bpSnap);
        if (head.dec->isControl() && head.taken)
            _btb->update(head.pc, head.nextPc);
        RegIndex dst = head.dec->archDst;
        if (dst != kNoReg && _regWriter[dst] == head.seq)
            _regWriter[dst] = kNoCycle;

        _oracle->retireBefore(head.oracleSeq + 1);
        _committed++;
        _lastCommitCycle = _cycle;
        committed++;
        _activity = true;
        if (head.halt) {
            _finished = true;
            return;
        }
        if (head.dec->isMem())
            _lsqUsed--;
        if (dst != kNoReg && !head.wrongPath)
            _inflightDst--;
        _ruu.pop_front();
        _ruuHeadPos++;
    }
}

Cycle
RuuCore::srcReady(const RuuInst &inst, RuuPos *pending) const
{
    Cycle ready = 0;
    for (int i = 0; i < inst.dec->numSrcs; i++) {
        RuuPos pos = inst.producerPos[i];
        if (pos == kNoPos || pos < _ruuHeadPos)
            continue;   // ready at dispatch, or the producer committed
        // A producer is older than its consumer, so it cannot have
        // been squashed while the consumer survives.
        const RuuInst &producer = _ruu[std::size_t(pos - _ruuHeadPos)];
        if (!producer.issued) {
            if (pending)
                *pending = pos;
            return kNoCycle;
        }
        ready = std::max(ready, producer.doneCycle);
    }
    return ready;
}

Cycle
RuuCore::srcReadyBySeq(const RuuInst &inst) const
{
    Cycle ready = 0;
    for (int i = 0; i < inst.dec->numSrcs; i++) {
        InstSeq writer = inst.producers[i];
        if (writer == kNoCycle)
            continue;   // value was architecturally ready at dispatch
        // Find the producer in the RUU (seq-ordered).
        auto it = std::lower_bound(
            _ruu.begin(), _ruu.end(), writer,
            [](const RuuInst &a, InstSeq s) { return a.seq < s; });
        if (it == _ruu.end() || it->seq != writer)
            continue;
        if (!it->issued)
            return kNoCycle;
        ready = std::max(ready, it->doneCycle);
    }
    return ready;
}

RuuCore::RuuPos
RuuCore::positionOf(InstSeq seq, RuuPos hint) const
{
    if (hint != kNoPos && hint >= _ruuHeadPos &&
        hint - _ruuHeadPos < _ruu.size() &&
        _ruu[std::size_t(hint - _ruuHeadPos)].seq == seq)
        return hint;
    // Only a flipped _regWriter gets here: search as srcReadyBySeq.
    auto it = std::lower_bound(
        _ruu.begin(), _ruu.end(), seq,
        [](const RuuInst &a, InstSeq s) { return a.seq < s; });
    if (it == _ruu.end() || it->seq != seq)
        return kNoPos;
    return _ruuHeadPos + RuuPos(it - _ruu.begin());
}

void
RuuCore::indexMemOp(RuuInst &inst, RuuPos pos)
{
    if (inst.wrongPath || !inst.dec->isMem())
        return;
    Addr word = inst.effAddr >> 3;
    if (inst.dec->isStore()) {
        _storeByWord[word] = pos;
    } else {
        auto it = _storeByWord.find(word);
        inst.forwardPos = it == _storeByWord.end() ? kNoPos : it->second;
    }
}

void
RuuCore::rebuildStoreIndex()
{
    _storeByWord.clear();
    RuuPos pos = _ruuHeadPos;
    for (RuuInst &inst : _ruu) {
        inst.forwardPos = kNoPos;
        indexMemOp(inst, pos++);
    }
}

void
RuuCore::verifyStoreIndex() const
{
    // Replay dispatch-time indexing over the current RUU; a load's
    // recorded store only counts while it is still in flight.
    std::unordered_map<Addr, RuuPos> by_word;
    RuuPos pos = _ruuHeadPos;
    for (const RuuInst &inst : _ruu) {
        if (!inst.wrongPath && inst.dec->isMem()) {
            Addr word = inst.effAddr >> 3;
            if (inst.dec->isStore()) {
                by_word[word] = pos;
            } else {
                auto it = by_word.find(word);
                RuuPos expect = it == by_word.end() ? kNoPos : it->second;
                RuuPos live = inst.forwardPos != kNoPos &&
                                      inst.forwardPos >= _ruuHeadPos
                                  ? inst.forwardPos
                                  : kNoPos;
                sim_assert(live == expect);
            }
        }
        pos++;
    }
    sim_assert(by_word == _storeByWord);
}

bool
RuuCore::takeFu(OpClass cls, FuUse &use) const
{
    int *used;
    int units;
    switch (cls) {
      case OpClass::IntMul:
        used = &use.mul;
        units = _p.intMuls;
        break;
      case OpClass::FpAdd: case OpClass::FpDivS: case OpClass::FpDivD:
      case OpClass::FpSqrtS: case OpClass::FpSqrtD:
        used = &use.fpAdd;
        units = _p.fpAddUnits;
        break;
      case OpClass::FpMul:
        used = &use.fpMul;
        units = _p.fpMulUnits;
        break;
      case OpClass::IntLoad: case OpClass::IntStore:
      case OpClass::FpLoad: case OpClass::FpStore:
        used = &use.mem;
        units = _p.memPorts;
        break;
      default:
        used = &use.alu;
        units = _p.intAlus;
        break;
    }
    if (*used >= units)
        return false;
    ++*used;
    return true;
}

Cycle
RuuCore::issueEntryLB(const RuuInst &inst) const
{
    if (!inst.dispatched || inst.issued)
        return kNoCycle;
    Cycle lb = inst.dispatchCycle + 1;
    if (!inst.wrongPath) {
        Cycle r = srcReady(inst);
        if (r == kNoCycle)
            return kNoCycle;    // a producer is not yet scheduled
        lb = std::max(lb, r);
    }
    return lb;
}

Cycle
RuuCore::recomputeIssueWake() const
{
    Cycle wake = kNoCycle;
    for (std::size_t i = firstUnissued(); i < _ruu.size(); i++) {
        Cycle lb = issueEntryLB(_ruu[i]);
        if (lb <= _cycle) {
            // Held back only by FU or issue-width arbitration: the
            // scan must rerun every cycle.
            return _cycle + 1;
        }
        wake = std::min(wake, lb);
    }
    return wake;
}

Cycle
RuuCore::dispatchEventCycle() const
{
    // Mirrors doDispatch's first-iteration gates; conditions cleared
    // only by another tracked event report kNoCycle.
    if (_fetchBuf.empty())
        return kNoCycle;
    const RuuInst &front = _fetchBuf.front();
    if (int(_ruu.size()) >= _p.ruuEntries)
        return kNoCycle;
    if (front.dec->isMem() && _lsqUsed >= _p.lsqEntries)
        return kNoCycle;
    if (_p.physRegs > 0 && front.dec->archDst != kNoReg &&
        !front.wrongPath && _inflightDst >= _p.physRegs)
        return kNoCycle;
    return front.readyForDispatch;
}

Cycle
RuuCore::fetchEventCycle() const
{
    if (_haltFetched && !_wrongPathMode)
        return kNoCycle;
    if (int(_fetchBuf.size()) + _p.fetchWidth > 4 * _p.fetchWidth)
        return kNoCycle;
    if (!_wrongPathMode && _oracle->exhausted())
        return kNoCycle;
    return _fetchResumeAt;
}

Cycle
RuuCore::fastForwardTarget() const
{
    Cycle ev = kNoCycle;
    if (_recovery)
        ev = std::min(ev, _recovery->atCycle);
    if (!_ruu.empty()) {
        const RuuInst &head = _ruu.front();
        if (!head.wrongPath && head.completed &&
            !(head.mispredicted && _recovery &&
              _recovery->seq == head.seq))
            ev = std::min(ev, head.doneCycle);
    }
    ev = std::min(ev, _issueWakeAt);
    ev = std::min(ev, dispatchEventCycle());
    ev = std::min(ev, fetchEventCycle());
    if (_p.watchdogCycles) {
        ev = std::min(ev,
                      _lastCommitCycle + _p.watchdogCycles + 1);
    }
    if (_injectPending) {
        // Never jump across a pending strike: the flip must land at
        // its planned cycle, before that cycle's stages run.
        ev = std::min(ev, _inject.cycle);
    }
    if (ev == kNoCycle || ev <= _cycle + 1)
        return 0;
    return ev;
}

void
RuuCore::selectReady(std::vector<std::size_t> &out) const
{
    out.clear();
    const std::size_t head = _ruu.headSlot();
    const std::size_t mask = _ruu.capacity() - 1;
    const std::size_t width = std::size_t(std::max(_p.issueWidth, 0));
    FuUse use;
    const SlotSet &ready = _wheel.ready(0);
    SlotSet::first(ready, ready, head, [&](std::size_t s) {
        if (out.size() < width && takeFu(_ruu[(s - head) & mask].dec->cls,
                                         use))
            out.push_back((s - head) & mask);
        return out.size() >= width;
    });
}

void
RuuCore::selectByWalk(std::vector<std::size_t> &out) const
{
    out.clear();
    const std::size_t width = std::size_t(std::max(_p.issueWidth, 0));
    std::size_t first = firstUnissued();
    if (_slowpath) {
        for (std::size_t i = 0; i < first; i++)
            sim_assert(_ruu[i].issued);
    }
    FuUse use;
    for (std::size_t i = first; i < _ruu.size() && out.size() < width;
         i++) {
        const RuuInst &inst = _ruu[i];
        if (inst.issued || !inst.dispatched)
            continue;
        if (inst.dispatchCycle + 1 > _cycle)
            continue;
        if (!inst.wrongPath) {
            Cycle r = srcReady(inst);
            if (_slowpath)
                sim_assert(r == srcReadyBySeq(inst));
            if (r == kNoCycle || r > _cycle)
                continue;
        }
        if (takeFu(inst.dec->cls, use))
            out.push_back(i);
    }
}

void
RuuCore::doIssue()
{
    Cycle wake0 = _issueWakeAt;
    if (_slowpath)
        verifyStoreIndex();
    else if (wake0 > _cycle)
        return;     // no entry can pass the issue gates yet

    // A listed entry is stale once its slot holds another or it issued.
    auto waiting = [this](std::size_t slot, InstSeq seq) {
        const RuuInst &d = _ruu.atSlot(slot);
        return d.seq == seq && !d.issued;
    };
    if (_selectByReadySet) {
        _wheel.drain(_cycle, waiting);
        selectReady(_winners);
        if (_slowpath) {
            verifyReadySet();
            std::vector<std::size_t> walked;
            selectByWalk(walked);
            sim_assert(walked == _winners);
        }
    } else {
        selectByWalk(_winners);
    }
    // Issuing never readies an entry in its own cycle (every latency is
    // at least one), so the winners are chosen before any issues; they
    // issue oldest first, as the walk used to issue them.
    for (std::size_t i : _winners) {
        performIssue(_ruu[i]);
        if (_slowpath)
            sim_assert(wake0 <= _cycle);
    }

    if (!_selectByReadySet || _slowpath) {
        std::size_t first = firstUnissued();
        while (first < _ruu.size() && _ruu[first].issued)
            first++;
        _issuedBefore = _ruuHeadPos + first;
    }

    // The ready set knows the next issue cycle exactly. The walk
    // rescans after an issue (it schedules new done cycles for
    // consumers), and a fruitless walk earns a recomputed bound.
    if (_selectByReadySet)
        _issueWakeAt = _wheel.wakeAfter(_cycle, waiting);
    else
        _issueWakeAt =
            _winners.empty() ? recomputeIssueWake() : _cycle + 1;
}

void
RuuCore::performIssue(RuuInst &inst)
{
    inst.issued = true;
    inst.issueCycle = _cycle;
    ++_c.instsIssued;
    _activity = true;

    Cycle done;
    if (inst.wrongPath) {
        done = _cycle + Cycle(inst.dec->latency);
    } else if (inst.dec->isLoad()) {
        // Perfect disambiguation: forward from any older in-flight
        // store to the same word, else access the cache. Stores
        // commit in order, so one is in flight iff the youngest
        // older one recorded at dispatch has not committed.
        bool forwarded = inst.forwardPos != kNoPos &&
                         inst.forwardPos >= _ruuHeadPos;
        if (_slowpath) {
            bool scan_forwarded = false;
            for (auto it = _ruu.rbegin(); it != _ruu.rend(); ++it) {
                if (it->seq >= inst.seq || it->wrongPath)
                    continue;
                if (it->dec->isStore() &&
                    (it->effAddr >> 3) == (inst.effAddr >> 3)) {
                    scan_forwarded = true;
                    break;
                }
            }
            sim_assert(scan_forwarded == forwarded);
        }
        if (forwarded) {
            done = _cycle + Cycle(inst.dec->latency);
            ++_c.storeForwards;
        } else {
            MemAccessResult r =
                _mem->dataAccess(inst.effAddr, false, _cycle + 1);
            done = r.l1Hit ? _cycle + Cycle(inst.dec->latency) : r.done;
        }
    } else if (inst.dec->isStore()) {
        done = _cycle + 1;
    } else {
        done = _cycle + Cycle(inst.dec->latency);
    }
    // Without a full bypass network the result is not visible to
    // consumers until it has been written through the register file.
    if (!_p.fullBypass && inst.dec->archDst != kNoReg)
        done += Cycle(_p.regreadCycles);
    inst.doneCycle = done;
    inst.completed = true;

    if (inst.mispredicted && !inst.wrongPath) {
        Cycle resolve = _cycle + Cycle(_p.regreadCycles) + 1;
        if (!_recovery || inst.seq < _recovery->seq)
            _recovery = PendingRecovery{inst.seq, resolve, inst.nextPc};
        if (inst.dec->isCondBranch() && inst.hasBpSnap)
            _branchPred->recover(inst.bpSnap, inst.taken);
        inst.doneCycle = std::max(inst.doneCycle, resolve);
    }

    if (!_selectByReadySet)
        return;
    // The done cycle is final: place the entries parked on it.
    _wheel.unplace(_ruu.slotOf(inst), 0, inst.wheelBucket);
    std::uint16_t w = inst.firstWaiter;
    inst.firstWaiter = kNoSlot;
    while (w != kNoSlot) {
        RuuInst &waiter = _ruu.atSlot(w);
        w = waiter.nextWaiter;
        evaluate(waiter);
    }
}

// ---------------------------------------------------------------------
// Ready-set select: entries are placed when they dispatch and again
// when the producer they parked on issues; nothing else changes when a
// correct-path entry's sources are ready (a producer's done cycle is
// final once it issues, and one that commits was ready already).
// ---------------------------------------------------------------------

void
RuuCore::evaluate(RuuInst &inst)
{
    const std::size_t slot = _ruu.slotOf(inst);
    Cycle when = inst.dispatchCycle + 1;
    if (!inst.wrongPath) {
        RuuPos pending = kNoPos;
        Cycle r = srcReady(inst, &pending);
        if (r == kNoCycle) {
            RuuInst &producer = _ruu[std::size_t(pending - _ruuHeadPos)];
            inst.nextWaiter = producer.firstWaiter;
            producer.firstWaiter = std::uint16_t(slot);
            return;
        }
        when = std::max(when, r);
    }
    _issueWakeAt = std::min(_issueWakeAt, when);
    // Only a correct-path entry waits past the wheel, and only commit
    // (after it issues) removes one, so a heap item is stale exactly
    // when its slot holds another seq or an issued entry.
    inst.wheelBucket = _wheel.place(slot, 0, when, _cycle, inst.seq);
}

void
RuuCore::verifyReadySet() const
{
    SlotSet want;
    for (const RuuInst &inst : _ruu)
        if (issueEntryLB(inst) <= _cycle)
            want.set(_ruu.slotOf(inst));
    sim_assert(want == _wheel.ready(0));
}

void
RuuCore::doDispatch()
{
    int dispatched = 0;
    while (dispatched < _p.decodeWidth && !_fetchBuf.empty()) {
        RuuInst &front = _fetchBuf.front();
        if (front.readyForDispatch > _cycle)
            break;
        if (int(_ruu.size()) >= _p.ruuEntries)
            break;
        if (front.dec->isMem()) {
            if (_slowpath) {
                int lsq = 0;
                for (const RuuInst &ri : _ruu)
                    if (ri.dec->isMem())
                        lsq++;
                sim_assert(lsq == _lsqUsed);
            }
            if (_lsqUsed >= _p.lsqEntries)
                break;
        }
        if (_p.physRegs > 0 && front.dec->archDst != kNoReg &&
            !front.wrongPath) {
            if (_slowpath) {
                int inflight = 0;
                for (const RuuInst &ri : _ruu)
                    if (ri.dec->archDst != kNoReg && !ri.wrongPath)
                        inflight++;
                sim_assert(inflight == _inflightDst);
            }
            if (_inflightDst >= _p.physRegs)
                break;
        }

        RuuPos pos = _ruuHeadPos + _ruu.size();
        _ruu.push_back(std::move(front));
        _fetchBuf.pop_front();
        RuuInst &inst = _ruu.back();
        inst.dispatched = true;
        inst.dispatchCycle = _cycle;
        if (!inst.wrongPath) {
            for (int i = 0; i < inst.dec->numSrcs; i++) {
                RegIndex src = inst.dec->srcs[i];
                InstSeq writer = _regWriter[src];
                if (writer != kNoCycle && writer < inst.seq) {
                    // Seqs only grow, so a writer missing from the RUU
                    // now never enters it: one lookup is final.
                    inst.producers[i] = writer;
                    inst.producerPos[i] =
                        positionOf(writer, _regWriterPos[src]);
                }
            }
            if (inst.dec->archDst != kNoReg) {
                _regWriter[inst.dec->archDst] = inst.seq;
                _regWriterPos[inst.dec->archDst] = pos;
            }
            indexMemOp(inst, pos);
        }
        if (inst.dec->isMem())
            _lsqUsed++;
        if (inst.dec->archDst != kNoReg && !inst.wrongPath)
            _inflightDst++;
        if (_selectByReadySet)
            evaluate(inst);
        dispatched++;
        ++_c.instsDispatched;
    }
    if (dispatched) {
        _activity = true;
        // Newly dispatched entries become issuable next cycle at the
        // earliest (evaluate() bounds the ready set's more tightly).
        if (!_selectByReadySet)
            _issueWakeAt = std::min(_issueWakeAt, _cycle + 1);
    }
}

void
RuuCore::doFetch()
{
    if (_cycle < _fetchResumeAt)
        return;
    if (_haltFetched && !_wrongPathMode)
        return;
    if (int(_fetchBuf.size()) + _p.fetchWidth > 4 * _p.fetchWidth)
        return;
    if (!_wrongPathMode && _oracle->exhausted())
        return;

    _activity = true;
    MemAccessResult f = _mem->fetchAccess(_fetchPc, _cycle);
    Cycle fdone = f.done;

    int fetched = 0;
    Addr pc = _fetchPc;
    bool redirected = false;

    while (fetched < _p.fetchWidth) {
        RuuInst ri;
        ri.seq = _seqCounter++;
        ri.pc = pc;
        ri.readyForDispatch = fdone + Cycle(_p.fetchToDispatch);

        if (_wrongPathMode) {
            ri.dec = &_prog->decodedAt(pc);
            ri.wrongPath = true;
        } else {
            if (_oracle->exhausted())
                break;
            sim_assert(_oracle->nextPc() == pc);
            const ExecutedInst &rec = _oracle->next();
            ri.oracleSeq = rec.seq;
            ri.dec = rec.dec;
            ri.nextPc = rec.nextPc;
            ri.taken = rec.taken;
            ri.effAddr = rec.effAddr;
            ri.halt = rec.halted;
        }
        fetched++;

        bool cut = false;
        Addr next_fetch = pc + 4;

        if (ri.dec->isControl()) {
            bool pred_taken = true;
            if (ri.dec->isCondBranch()) {
                ri.hasBpSnap = true;
                pred_taken = _branchPred->predict(ri.pc, ri.bpSnap);
            }

            Addr pred_target = kNoAddr;
            if (pred_taken) {
                if (ri.dec->isPcRel())
                    pred_target = ri.dec->targetPc;
                else if (ri.dec->isReturn())
                    pred_target = _ras->pop();
                else
                    pred_target = _btb->lookup(ri.pc);
                if (pred_target == kNoAddr) {
                    // BTB miss on an indirect: fall through and let the
                    // resolution redirect (a mispredict).
                    pred_target = pc + 4;
                    pred_taken = false;
                }
            }
            if (ri.dec->isCall())
                _ras->push(ri.pc + 4);

            if (!_wrongPathMode) {
                Addr actual = ri.taken ? ri.nextPc : pc + 4;
                Addr frontend = pred_taken ? pred_target : pc + 4;
                if (frontend != actual) {
                    ri.mispredicted = true;
                    _wrongPathMode = true;
                    redirected = true;
                    next_fetch = frontend;
                    cut = pred_taken;
                } else if (pred_taken) {
                    next_fetch = pred_target;
                    cut = true;     // taken branches end the packet
                }
            } else {
                if (pred_taken) {
                    next_fetch = pred_target;
                    cut = true;
                }
            }
        } else if (!_wrongPathMode && ri.halt) {
            _haltFetched = true;
            _fetchBuf.push_back(std::move(ri));
            break;
        }

        (void)redirected;
        _fetchBuf.push_back(std::move(ri));
        pc = next_fetch;
        if (cut)
            break;
    }

    _fetchPc = pc;
    _fetchResumeAt = fdone;
}

} // namespace simalpha
