#include "ruu_core.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

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
    : _p(params), _stats(params.name), _c(_stats),
      _fetchBuf(std::size_t(std::max(4 * params.fetchWidth, 1))),
      _ruu(std::size_t(std::max(params.ruuEntries, 1)))
{
}

RuuCore::BoundCounters::BoundCounters(stats::Group &g)
    : cycles(g.counter("cycles")),
      instsCommitted(g.counter("insts_committed")),
      branchMispredicts(g.counter("branch_mispredicts")),
      instsIssued(g.counter("insts_issued")),
      storeForwards(g.counter("store_forwards")),
      instsDispatched(g.counter("insts_dispatched"))
{
}

void
RuuCore::resetMachine(const Program &program)
{
    _prog = &program;
    // The oracle is program state and is rebuilt every run; the other
    // sub-units have fixed geometry and reset in place on reuse.
    _oracle = std::make_unique<OracleStream>(program);
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

    _cycle = 0;
    _seqCounter = 0;
    _committed = 0;
    _finished = false;
    _fetchPc = program.entryPc;
    _fetchResumeAt = 0;
    _wrongPathMode = false;
    _haltFetched = false;
    _regWriter.assign(kNumIntRegs + kNumFpRegs, kNoCycle);
    _regWriterPos.assign(kNumIntRegs + kNumFpRegs, kNoPos);
    _fetchBuf.clear();
    _ruu.clear();
    _ruuHeadPos = 0;
    _issuedBefore = 0;
    _storeByWord.clear();
    _recovery.reset();
    _fuCycle = kNoCycle;
    _lastCommitCycle = 0;
    _stats.reset();

    _lsqUsed = 0;
    _inflightDst = 0;
    _issueWakeAt = 0;
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
RuuCore::runLoop(const Program &program)
{
    const Cycle budget = _inject.enabled() ? _injectBudget : 0;
    while (!_finished && (_maxInsts == 0 || _committed < _maxInsts)) {
        // The armed flip strikes before the stages of its cycle, on
        // the slow and fast paths alike (fastForwardTarget never
        // jumps across a pending strike).
        if (_injectPending && _cycle >= _inject.cycle)
            applyInjection();
        if (budget && _cycle > budget)
            throw TimeoutError(
                "injected run exceeded its cycle budget (" +
                std::to_string(budget) + " cycles)");
        if (_slowpath) {
            // Dual-run mode: predict the idle window the fast path
            // would skip, execute every cycle anyway, and assert each
            // predicted-idle cycle really was inactive.
            if (_cycle >= _ffCheckUntil) {
                Cycle j = fastForwardTarget();
                if (j)
                    _ffCheckUntil = j;
            }
            _activity = false;
        } else {
            Cycle j = fastForwardTarget();
            if (j) {
                // Every cycle in [_cycle, j) is provably inactive
                // (capped at the watchdog horizon so deadlocks fire
                // at the exact baseline cycle).
                _cycle = j;
                if (_p.watchdogCycles &&
                    _cycle - _lastCommitCycle > _p.watchdogCycles)
                    throw DeadlockError(deadlockSnapshot(program));
                continue;
            }
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

RunResult
RuuCore::run(const Program &program, std::uint64_t max_insts)
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
RuuCore::runWindow(const Program &program, const Checkpoint &start,
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
RuuCore::deadlockSnapshot(const Program &program) const
{
    DeadlockInfo info;
    info.machine = _p.name;
    info.program = program.name;
    info.cycle = _cycle;
    info.lastCommitCycle = _lastCommitCycle;
    info.committed = _committed;
    info.fetchPc = _fetchPc;
    info.windowOccupancy = _ruu.size();
    if (!_ruu.empty()) {
        const RuuInst &h = _ruu.front();
        char buf[192];
        std::snprintf(buf, sizeof(buf),
                      "seq=%llu pc=0x%llx %s wp=%d issued=%d done=%llu",
                      (unsigned long long)h.seq,
                      (unsigned long long)h.pc,
                      h.inst.disassemble().c_str(), int(h.wrongPath),
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
        sim_assert(_ruu.back().wrongPath);
        if (_ruu.back().inst.isMem())
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

        if (head.inst.isStore()) {
            _mem->dataAccess(head.effAddr, true, _cycle);
            auto it = _storeByWord.find(head.effAddr >> 3);
            if (it != _storeByWord.end() && it->second == _ruuHeadPos)
                _storeByWord.erase(it);
        }
        if (head.inst.isCondBranch() && head.hasBpSnap)
            _branchPred->update(head.pc, head.taken, head.bpSnap);
        if (head.inst.isControl() && head.taken)
            _btb->update(head.pc, head.nextPc);
        if (head.dst != kNoReg && _regWriter[head.dst] == head.seq)
            _regWriter[head.dst] = kNoCycle;

        _oracle->retireBefore(head.oracleSeq + 1);
        _committed++;
        _lastCommitCycle = _cycle;
        committed++;
        _activity = true;
        if (head.halt) {
            _finished = true;
            return;
        }
        if (head.inst.isMem())
            _lsqUsed--;
        if (head.dst != kNoReg && !head.wrongPath)
            _inflightDst--;
        _ruu.pop_front();
        _ruuHeadPos++;
    }
}

Cycle
RuuCore::srcReady(const RuuInst &inst) const
{
    Cycle ready = 0;
    for (int i = 0; i < inst.numSrcs; i++) {
        RuuPos pos = inst.producerPos[i];
        if (pos == kNoPos || pos < _ruuHeadPos)
            continue;   // ready at dispatch, or the producer committed
        // A producer is older than its consumer, so it cannot have
        // been squashed while the consumer survives.
        const RuuInst &producer = _ruu[std::size_t(pos - _ruuHeadPos)];
        if (!producer.issued)
            return kNoCycle;
        ready = std::max(ready, producer.doneCycle);
    }
    return ready;
}

Cycle
RuuCore::srcReadyBySeq(const RuuInst &inst) const
{
    Cycle ready = 0;
    for (int i = 0; i < inst.numSrcs; i++) {
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
    if (inst.wrongPath || !inst.inst.isMem())
        return;
    Addr word = inst.effAddr >> 3;
    if (inst.inst.isStore()) {
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
        if (!inst.wrongPath && inst.inst.isMem()) {
            Addr word = inst.effAddr >> 3;
            if (inst.inst.isStore()) {
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
RuuCore::fuAvailable(OpClass cls) const
{
    if (_fuCycle != _cycle)
        return true;
    switch (cls) {
      case OpClass::IntMul:
        return _mulUsed < _p.intMuls;
      case OpClass::FpAdd: case OpClass::FpDivS: case OpClass::FpDivD:
      case OpClass::FpSqrtS: case OpClass::FpSqrtD:
        return _fpAddUsed < _p.fpAddUnits;
      case OpClass::FpMul:
        return _fpMulUsed < _p.fpMulUnits;
      case OpClass::IntLoad: case OpClass::IntStore:
      case OpClass::FpLoad: case OpClass::FpStore:
        return _memUsed < _p.memPorts;
      default:
        return _aluUsed < _p.intAlus;
    }
}

void
RuuCore::consumeFu(OpClass cls)
{
    if (_fuCycle != _cycle) {
        _fuCycle = _cycle;
        _aluUsed = _mulUsed = _fpAddUsed = _fpMulUsed = _memUsed = 0;
    }
    switch (cls) {
      case OpClass::IntMul:
        _mulUsed++;
        break;
      case OpClass::FpAdd: case OpClass::FpDivS: case OpClass::FpDivD:
      case OpClass::FpSqrtS: case OpClass::FpSqrtD:
        _fpAddUsed++;
        break;
      case OpClass::FpMul:
        _fpMulUsed++;
        break;
      case OpClass::IntLoad: case OpClass::IntStore:
      case OpClass::FpLoad: case OpClass::FpStore:
        _memUsed++;
        break;
      default:
        _aluUsed++;
        break;
    }
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
    if (front.inst.isMem() && _lsqUsed >= _p.lsqEntries)
        return kNoCycle;
    if (_p.physRegs > 0 && front.dst != kNoReg && !front.wrongPath &&
        _inflightDst >= _p.physRegs)
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
RuuCore::doIssue()
{
    Cycle wake0 = _issueWakeAt;
    if (_slowpath)
        verifyStoreIndex();
    else if (wake0 > _cycle)
        return;     // no entry can pass the issue gates yet

    int issued = 0;
    std::size_t first = firstUnissued();
    if (_slowpath) {
        for (std::size_t i = 0; i < first; i++)
            sim_assert(_ruu[i].issued);
    }
    for (std::size_t i = first; i < _ruu.size(); i++) {
        RuuInst &inst = _ruu[i];
        if (issued >= _p.issueWidth)
            break;
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
        OpClass cls = inst.inst.opClass();
        if (!fuAvailable(cls))
            continue;
        consumeFu(cls);

        inst.issued = true;
        inst.issueCycle = _cycle;
        issued++;
        ++_c.instsIssued;
        _activity = true;
        if (_slowpath)
            sim_assert(wake0 <= _cycle);

        Cycle done;
        if (inst.wrongPath) {
            done = _cycle + Cycle(inst.inst.latency());
        } else if (inst.inst.isLoad()) {
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
                    if (it->inst.isStore() &&
                        (it->effAddr >> 3) == (inst.effAddr >> 3)) {
                        scan_forwarded = true;
                        break;
                    }
                }
                sim_assert(scan_forwarded == forwarded);
            }
            if (forwarded) {
                done = _cycle + Cycle(inst.inst.latency());
                ++_c.storeForwards;
            } else {
                MemAccessResult r =
                    _mem->dataAccess(inst.effAddr, false, _cycle + 1);
                done = r.l1Hit ? _cycle + Cycle(inst.inst.latency())
                               : r.done;
            }
        } else if (inst.inst.isStore()) {
            done = _cycle + 1;
        } else {
            done = _cycle + Cycle(inst.inst.latency());
        }
        // Without a full bypass network the result is not visible to
        // consumers until it has been written through the register
        // file.
        if (!_p.fullBypass && inst.dst != kNoReg)
            done += Cycle(_p.regreadCycles);
        inst.doneCycle = done;
        inst.completed = true;

        if (inst.mispredicted && !inst.wrongPath) {
            Cycle resolve =
                _cycle + Cycle(_p.regreadCycles) + 1;
            if (!_recovery || inst.seq < _recovery->seq)
                _recovery = PendingRecovery{inst.seq, resolve,
                                            inst.nextPc};
            if (inst.inst.isCondBranch() && inst.hasBpSnap)
                _branchPred->recover(inst.bpSnap, inst.taken);
            inst.doneCycle = std::max(inst.doneCycle, resolve);
        }
    }

    while (first < _ruu.size() && _ruu[first].issued)
        first++;
    _issuedBefore = _ruuHeadPos + first;

    // An issue schedules new done cycles for consumers: rescan next
    // cycle. A fruitless scan earns an exact recomputed bound.
    _issueWakeAt = issued ? _cycle + 1 : recomputeIssueWake();
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
        if (front.inst.isMem()) {
            if (_slowpath) {
                int lsq = 0;
                for (const RuuInst &ri : _ruu)
                    if (ri.inst.isMem())
                        lsq++;
                sim_assert(lsq == _lsqUsed);
            }
            if (_lsqUsed >= _p.lsqEntries)
                break;
        }
        if (_p.physRegs > 0 && front.dst != kNoReg &&
            !front.wrongPath) {
            if (_slowpath) {
                int inflight = 0;
                for (const RuuInst &ri : _ruu)
                    if (ri.dst != kNoReg && !ri.wrongPath)
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
            for (int i = 0; i < inst.numSrcs; i++) {
                RegIndex src = inst.srcs[i];
                InstSeq writer = _regWriter[src];
                if (writer != kNoCycle && writer < inst.seq) {
                    // Seqs only grow, so a writer missing from the RUU
                    // now never enters it: one lookup is final.
                    inst.producers[i] = writer;
                    inst.producerPos[i] =
                        positionOf(writer, _regWriterPos[src]);
                }
            }
            if (inst.dst != kNoReg) {
                _regWriter[inst.dst] = inst.seq;
                _regWriterPos[inst.dst] = pos;
            }
            indexMemOp(inst, pos);
        }
        if (inst.inst.isMem())
            _lsqUsed++;
        if (inst.dst != kNoReg && !inst.wrongPath)
            _inflightDst++;
        dispatched++;
        ++_c.instsDispatched;
    }
    if (dispatched) {
        _activity = true;
        // Newly dispatched entries become issuable next cycle.
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
            ri.inst = _prog->fetch(pc);
            ri.wrongPath = true;
        } else {
            if (_oracle->exhausted())
                break;
            sim_assert(_oracle->nextPc() == pc);
            const ExecutedInst &rec = _oracle->next();
            ri.oracleSeq = rec.seq;
            ri.inst = rec.inst;
            ri.nextPc = rec.nextPc;
            ri.taken = rec.taken;
            ri.effAddr = rec.effAddr;
            ri.halt = rec.halted;
        }
        RegIndex srcs[3];
        ri.numSrcs = ri.inst.srcRegs(srcs);
        for (int i = 0; i < ri.numSrcs; i++)
            ri.srcs[i] = srcs[i];
        ri.dst = ri.inst.dstReg();

        fetched++;

        bool cut = false;
        Addr next_fetch = pc + 4;

        if (ri.inst.isControl()) {
            bool pred_taken = true;
            if (ri.inst.isCondBranch()) {
                ri.hasBpSnap = true;
                pred_taken = _branchPred->predict(ri.pc, ri.bpSnap);
            }
            ri.predTaken = pred_taken;

            Addr pred_target = kNoAddr;
            if (pred_taken) {
                if (ri.inst.isPcRelBranch())
                    pred_target =
                        _prog->pcOf(std::size_t(ri.inst.target));
                else if (ri.inst.isReturn())
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
            if (ri.inst.isCall())
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
