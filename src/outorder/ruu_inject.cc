/**
 * @file
 * RuuCore's strike — the abstract core's counterpart of
 * core_inject.cc, with the RUU playing the role of ROB, LSQ, and
 * issue window at once. Same safety contract: folded indexes, flips
 * within field widths, contained errors only.
 */

#include "outorder/ruu_core.hh"

namespace simalpha {

void
RuuCore::applyInjection()
{
    _injectPending = false;
    const inject::StateInjection &inj = _inject;
    std::uint64_t salt = inj.index >> 8;
    std::string note = inject::targetName(inj.target);
    note += ' ';

    // Same field menu as AlphaCore's window flips so the two cores
    // expose comparable ROB/LSQ vulnerability surfaces.
    auto flipEntry = [&](RuuInst &d) -> std::string {
        switch (inj.bit % 6) {
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
    };

    switch (inj.target) {
      case inject::Target::RenameMap: {
        // The RUU machine's rename state is the in-flight-writer map:
        // corrupt which producer a later consumer will wait on.
        std::size_t a = std::size_t(inj.index % _regWriter.size());
        _regWriter[a] ^= InstSeq(1) << (inj.bit % 64);
        note += "writer of arch " + std::to_string(a) + " bit " +
                std::to_string(inj.bit % 64);
        break;
      }
      case inject::Target::Rob: {
        if (_ruu.empty()) {
            note += "(window empty; flip dropped)";
            break;
        }
        RuuInst &d = _ruu[std::size_t(inj.index % _ruu.size())];
        note += "slot " + std::to_string(inj.index % _ruu.size()) +
                " " + flipEntry(d);
        break;
      }
      case inject::Target::Lsq: {
        std::vector<std::size_t> mem;
        for (std::size_t i = 0; i < _ruu.size(); i++)
            if (_ruu[i].dec->isMem())
                mem.push_back(i);
        if (mem.empty()) {
            note += "(no resident memory op; flip dropped)";
            break;
        }
        RuuInst &d = _ruu[mem[std::size_t(inj.index % mem.size())]];
        note += "entry " + std::to_string(inj.index % mem.size()) +
                " " + flipEntry(d);
        break;
      }
      case inject::Target::Iq: {
        // The RUU doubles as the issue window: strike an entry that
        // is dispatched but not yet issued.
        std::vector<std::size_t> waiting;
        for (std::size_t i = 0; i < _ruu.size(); i++)
            if (_ruu[i].dispatched && !_ruu[i].issued)
                waiting.push_back(i);
        if (waiting.empty()) {
            note += "(no waiting entry; flip dropped)";
            break;
        }
        RuuInst &d =
            _ruu[waiting[std::size_t(inj.index % waiting.size())]];
        note += "slot " +
                std::to_string(inj.index % waiting.size()) + " " +
                flipEntry(d);
        break;
      }
      default:
        applySharedFlip(note);
        break;
    }

    _injectNote = note;
    // The cached issue bound is a lower bound computed from pre-flip
    // state; the flip can make issue possible earlier. A flipped issued
    // flag, done cycle or writer invalidates the ready set's state, so
    // the walk selects for the rest of the run.
    _issueWakeAt = _cycle;
    _issuedBefore = _ruuHeadPos;    // a flip can un-issue an entry
    _selectByReadySet = false;
    // A window or lsq flip can move an address. (Position ids need no
    // rebuild: no flip moves an entry, and a flipped _regWriter is
    // resolved at the consumer's dispatch.)
    rebuildStoreIndex();
}

} // namespace simalpha
