/**
 * @file
 * AlphaCore state-injection hooks: arming, the strike-time bit flip
 * for every injection target, and the architectural-state capture the
 * outcome classifier compares against the golden run.
 *
 * Safety contract: a flipped value is never used as an unchecked
 * array index. Indexes fold into structure geometry (modulo sizes)
 * and flips land within each field's legal width, so a wild flip can
 * trip a contained InvariantError but never undefined behaviour —
 * crashes are an *outcome*, not a host-process hazard.
 */

#include <algorithm>
#include <cstdio>

#include "core/core.hh"

namespace simalpha {

namespace {

std::string
hexAddr(Addr addr)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "0x%llx",
                  static_cast<unsigned long long>(addr));
    return buf;
}

/**
 * Flip one field of a window entry. The bit selects the field class;
 * @p salt (spare entropy from the index draw) selects the bit within
 * wide fields. Shared shape with RuuCore's menu so both cores expose
 * comparable ROB vulnerability surfaces.
 */
std::string
flipWindowEntry(DynInst &d, std::uint32_t bit, std::uint64_t salt)
{
    switch (bit % 6) {
      case 0:
        d.issued = !d.issued;
        return "issued flag";
      case 1:
        d.completed = !d.completed;
        return "completed flag";
      case 2:
        d.taken = !d.taken;
        return "taken flag";
      case 3: {
        int shift = int(4 * (salt % 12));
        d.doneCycle ^= Cycle(1) << shift;
        return "doneCycle bit " + std::to_string(shift);
      }
      case 4: {
        int shift = int(3 * (salt % 16));
        d.effAddr ^= Addr(1) << shift;
        return "effAddr bit " + std::to_string(shift);
      }
      default:
        d.mispredicted = !d.mispredicted;
        return "mispredicted flag";
    }
}

/** Load/store-queue flavored flip: address and memory-status bits. */
std::string
flipMemEntry(DynInst &d, std::uint32_t bit, std::uint64_t salt)
{
    switch (bit % 4) {
      case 0: {
        int shift = int(3 * (salt % 16));
        d.effAddr ^= Addr(1) << shift;
        return "effAddr bit " + std::to_string(shift);
      }
      case 1:
        d.memIssued = !d.memIssued;
        return "memIssued flag";
      case 2:
        d.dcacheHit = !d.dcacheHit;
        return "dcacheHit flag";
      default:
        d.predictedHit = !d.predictedHit;
        return "predictedHit flag";
    }
}

} // namespace

bool
AlphaCore::armInjection(const inject::StateInjection *injection,
                        Cycle cycle_budget)
{
    if (!injection || !injection->enabled()) {
        _inject = inject::StateInjection{};
        _injectBudget = 0;
        _injectPending = false;
        _injectNote.clear();
        return true;
    }
    _inject = *injection;
    _injectBudget = cycle_budget;
    // The strike becomes pending when resetMachine() starts a run.
    _injectPending = false;
    _injectNote.clear();
    return true;
}

bool
AlphaCore::architecturalState(Checkpoint *out) const
{
    if (!_oracle)
        return false;
    *out = _oracle->emulator().checkpoint();
    return true;
}

void
AlphaCore::applyInjection()
{
    _injectPending = false;
    const inject::StateInjection &inj = _inject;
    std::uint64_t salt = inj.index >> 8;
    std::string note = inject::targetName(inj.target);
    note += ' ';

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
      case inject::Target::RenameMap: {
        RegIndex arch = 0;
        PhysReg phys = 0;
        _rename->injectMapFlip(inj.index, inj.bit, &arch, &phys);
        note += "arch " + std::to_string(int(arch)) + " -> p" +
                std::to_string(int(phys));
        break;
      }
      case inject::Target::Rob: {
        if (_rob.empty()) {
            note += "(window empty; flip dropped)";
            break;
        }
        DynInst &d = _rob[std::size_t(inj.index % _rob.size())];
        note += "slot " +
                std::to_string(inj.index % _rob.size()) + " " +
                flipWindowEntry(d, inj.bit, salt);
        break;
      }
      case inject::Target::Lsq: {
        std::vector<std::size_t> mem;
        for (std::size_t i = 0; i < _rob.size(); i++)
            if (_rob[i].inst.isMem())
                mem.push_back(i);
        if (mem.empty()) {
            note += "(no resident memory op; flip dropped)";
            break;
        }
        DynInst &d = _rob[mem[std::size_t(inj.index % mem.size())]];
        note += "entry " + std::to_string(inj.index % mem.size()) +
                " " + flipMemEntry(d, inj.bit, salt);
        break;
      }
      case inject::Target::Iq: {
        const std::vector<DynInst *> &ints = _intIq->entries();
        const std::vector<DynInst *> &fps = _fpIq->entries();
        std::size_t n = ints.size() + fps.size();
        if (n == 0) {
            note += "(queues empty; flip dropped)";
            break;
        }
        std::size_t i = std::size_t(inj.index % n);
        DynInst &d =
            i < ints.size() ? *ints[i] : *fps[i - ints.size()];
        note += "slot " + std::to_string(i) + " " +
                flipWindowEntry(d, inj.bit, salt);
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
        bool struck = false;
        for (std::size_t k = 0; k < n; k++) {
            auto [addr, word] = words[(start + k) % n];
            if (_mem->dcacheProbe(addr)) {
                emu.memory().write64(
                    addr, word ^ (RegVal(1) << (inj.bit % 64)));
                note += "word " + hexAddr(addr) + " bit " +
                        std::to_string(inj.bit % 64);
                struck = true;
                break;
            }
        }
        if (!struck)
            note += "(no cached word resident; flip dropped)";
        break;
      }
      case inject::Target::TlbTag:
        note += _mem->injectTlbTagFlip(inj.index, inj.bit);
        break;
      case inject::Target::None:
        break;
    }

    _injectNote = note;
    // Cached wake bounds are lower bounds computed from pre-flip
    // state; the flip can make events earlier, so force a rescan.
    _intWakeAt = _cycle;
    _fpWakeAt = _cycle;
    // Every derived select structure is rebuilt from the struck
    // state: readiness is re-evaluated each cycle from here on, and
    // the unresolved-store record rescans the ROB (an lsq flip can
    // toggle memIssued).
    _cacheReadiness = false;
    invalidateSelect();
    _unresolvedStores.clear();
    for (const DynInst &d : _rob)
        if (!d.wrongPath && d.inst.isStore() && !d.memIssued)
            _unresolvedStores.push_back(d.seq);
}

} // namespace simalpha
