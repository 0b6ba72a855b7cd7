#include "core/timed_core.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace simalpha {

TimedCore::TimedCore(const std::string &name)
    : _stats(name), _cyclesStat(_stats.counter("cycles")),
      _committedStat(_stats.counter("insts_committed"))
{
}

void
TimedCore::startRun(const Program &program, const Checkpoint *start)
{
    _prog = &program;
    // The oracle is program state and is rebuilt every run; every other
    // unit's geometry is fixed by the core's parameters, so on reuse
    // resetMachine() resets the units in place instead of reallocating
    // them (campaign core reuse).
    _oracle = start ? std::make_unique<OracleStream>(program, *start)
                    : std::make_unique<OracleStream>(program);
    _cycle = 0;
    _seqCounter = 0;
    _committed = 0;
    _finished = false;
    _lastCommitCycle = 0;
    _fetchPc = start ? start->pc : program.entryPc;
    _fetchResumeAt = 0;
    _wrongPathMode = false;
    _haltFetched = false;
    _stats.reset();
    const char *slow = std::getenv("SIMALPHA_SLOWPATH");
    _slowpath = slow && std::strcmp(slow, "1") == 0;
    _ffCheckUntil = 0;
    _activity = false;
    // An armed injection re-arms for every run; the strike itself is
    // per-run state.
    _injectPending = _inject.enabled();
    _injectNote.clear();
    resetMachine();
}

RunResult
TimedCore::run(const Program &program, std::uint64_t max_insts)
{
    startRun(program, nullptr);
    _maxInsts = max_insts;
    runLoop(program);
    return result(program, 0, 0);
}

RunResult
TimedCore::runWindow(const Program &program, const Checkpoint &start,
                     std::uint64_t warmup_insts,
                     std::uint64_t measure_insts,
                     std::map<std::string, std::uint64_t>
                         *measured_counters)
{
    // The oracle resumes at the checkpoint and fetch starts where the
    // restored architectural state left off. Everything
    // microarchitectural (caches, predictors, queues) stays cold —
    // that is what the warm-up phase is for.
    startRun(program, &start);
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
        publishCounts();
        before = _stats.snapshot();
    }

    if (!_finished) {
        // measure_insts == 0 runs the window to program completion.
        _maxInsts = measure_insts ? warm_insts + measure_insts : 0;
        runLoop(program);
    }

    RunResult res = result(program, warm_cycles, warm_insts);
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

RunResult
TimedCore::result(const Program &program, Cycle cycles,
                  std::uint64_t insts)
{
    RunResult res;
    res.machine = name();
    res.program = program.name;
    res.cycles = _cycle - cycles;
    res.instsCommitted = _committed - insts;
    res.finished = _finished;
    publishCounts();
    return res;
}

void
TimedCore::publishCounts()
{
    _cyclesStat.set(_cycle);
    _committedStat.set(_committed);
}

DeadlockInfo
TimedCore::deadlockHeader(const Program &program, std::size_t window) const
{
    DeadlockInfo info;
    info.machine = name();
    info.program = program.name;
    info.cycle = _cycle;
    info.lastCommitCycle = _lastCommitCycle;
    info.committed = _committed;
    info.fetchPc = _fetchPc;
    info.windowOccupancy = window;
    return info;
}

bool
TimedCore::armInjection(const inject::StateInjection *injection,
                        Cycle cycle_budget)
{
    const bool armed = injection && injection->enabled();
    _inject = armed ? *injection : inject::StateInjection{};
    _injectBudget = armed ? cycle_budget : 0;
    // The strike becomes pending when the next run starts.
    _injectPending = false;
    _injectNote.clear();
    return true;
}

bool
TimedCore::architecturalState(Checkpoint *out) const
{
    if (!_oracle)
        return false;
    *out = _oracle->emulator().fullState();
    return true;
}

void
TimedCore::applySharedFlip(std::string &note)
{
    const inject::StateInjection &inj = _inject;
    switch (inj.target) {
      case inject::Target::RegFile: {
        std::uint64_t r = inj.index % (kNumIntRegs + kNumFpRegs);
        if (isZeroRegIndex(RegIndex(r))) {
            // The backing word is never read architecturally but would
            // leak into the state digest; drop the flip instead.
            note += "r" + std::to_string(r) +
                    " (hardwired zero; flip dropped)";
        } else {
            _oracle->emulator().flipRegisterBit(r, inj.bit);
            note += "r" + std::to_string(r) + " bit " +
                    std::to_string(inj.bit % 64);
        }
        break;
      }
      case inject::Target::Bpred:
        _branchPred->injectBitFlip(inj.index, inj.bit);
        note += "cell " + std::to_string(inj.index) + " bit " +
                std::to_string(inj.bit);
        break;
      case inject::Target::CacheTag:
        note += _mem->injectCacheTagFlip(inj.index, inj.bit);
        break;
      case inject::Target::CacheData: {
        // Flip a word that is both architecturally live and resident
        // in the D-cache: the flip is visible to every later read,
        // modelling corrupted cached data written back to memory.
        Emulator &emu = _oracle->emulator();
        auto words = emu.memory().exportWords();
        std::sort(words.begin(), words.end());
        if (words.empty()) {
            note += "(no data written yet; flip dropped)";
            break;
        }
        std::size_t n = words.size();
        std::size_t start = std::size_t(inj.index % n);
        for (std::size_t k = 0; k < n; k++) {
            auto [addr, word] = words[(start + k) % n];
            if (_mem->dcacheProbe(addr)) {
                emu.memory().write64(
                    addr, word ^ (RegVal(1) << (inj.bit % 64)));
                char hex[24];
                std::snprintf(hex, sizeof(hex), "0x%llx",
                              static_cast<unsigned long long>(addr));
                note += "word " + std::string(hex) + " bit " +
                        std::to_string(inj.bit % 64);
                return;
            }
        }
        note += "(no cached word resident; flip dropped)";
        break;
      }
      case inject::Target::TlbTag:
        note += _mem->injectTlbTagFlip(inj.index, inj.bit);
        break;
      default:
        break;
    }
}

} // namespace simalpha
