/**
 * @file
 * AlphaCore's strike: the bit flip for its window targets (rob, lsq,
 * iq, renamemap) and the select state's rebuild afterwards; arming and
 * the flips of the structures both cores share are TimedCore's.
 *
 * Safety contract: a flipped value is never used as an unchecked
 * array index. Indexes fold into structure geometry (modulo sizes)
 * and flips land within each field's legal width, so a wild flip can
 * trip a contained InvariantError but never undefined behaviour —
 * crashes are an *outcome*, not a host-process hazard.
 */

#include "core/core.hh"

namespace simalpha {

namespace {

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

void
AlphaCore::applyInjection()
{
    _injectPending = false;
    const inject::StateInjection &inj = _inject;
    std::uint64_t salt = inj.index >> 8;
    std::string note = inject::targetName(inj.target);
    note += ' ';

    switch (inj.target) {
      case inject::Target::RenameMap: {
        RegIndex arch = 0;
        PhysReg phys = 0;
        _rename->injectMapFlip(inj.index, inj.bit, &arch, &phys);
        note += "arch " + std::to_string(int(arch)) + " -> p" +
                std::to_string(int(phys));
        break;
      }
      case inject::Target::Rob: {
        // Only the ROB prefix of the ring: fetch-queue entries are
        // never flip targets.
        if (!_robSize) {
            note += "(window empty; flip dropped)";
            break;
        }
        DynInst &d = _ring[std::size_t(inj.index % _robSize)];
        note += "slot " +
                std::to_string(inj.index % _robSize) + " " +
                flipWindowEntry(d, inj.bit, salt);
        break;
      }
      case inject::Target::Lsq: {
        std::vector<std::size_t> mem;
        for (std::size_t i = 0; i < _robSize; i++)
            if (_ring[i].dec->isMem())
                mem.push_back(i);
        if (mem.empty()) {
            note += "(no resident memory op; flip dropped)";
            break;
        }
        DynInst &d = _ring[mem[std::size_t(inj.index % mem.size())]];
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
      default:
        applySharedFlip(note);
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
    for (const DynInst &d : rob())
        if (!d.wrongPath && d.dec->isStore() && !d.memIssued)
            _unresolvedStores.push_back(d.seq);
}

} // namespace simalpha
