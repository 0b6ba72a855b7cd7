/**
 * @file
 * Register renaming: the map-stage rename table and physical register
 * free lists for the 80 physical registers (40 integer + 40 fp) of the
 * 21264, with squash-time rollback.
 */

#ifndef SIMALPHA_CORE_RENAME_HH
#define SIMALPHA_CORE_RENAME_HH

#include <vector>

#include "common/logging.hh"
#include "core/dyninst.hh"

namespace simalpha {

class RenameUnit
{
  public:
    RenameUnit(int phys_int, int phys_fp);

    /** Current mapping of an architectural register. */
    PhysReg
    lookup(RegIndex arch) const
    {
        sim_assert(arch != kNoReg);
        return _map[arch];
    }

    /**
     * Allocate a new physical register for `arch` and update the map.
     * @param[out] old_phys the previous mapping (freed at retire)
     * @return the new physical register, or kNoPhys if the free list for
     *         that class is empty
     */
    PhysReg allocate(RegIndex arch, PhysReg &old_phys);

    /** Undo a rename (squash): restore arch -> old mapping, free phys. */
    void undo(RegIndex arch, PhysReg phys, PhysReg old_phys);

    /** Retire-time release of the displaced mapping. */
    void release(PhysReg old_phys);

    /** Restore freshly-constructed state (campaign core reuse). */
    void reset();

    int freeIntRegs() const { return int(_freeInt.size()); }
    int freeFpRegs() const { return int(_freeFp.size()); }

    /**
     * Soft-error injection: corrupt one rename-map entry. The flipped
     * mapping is folded back into the entry's register class, so every
     * later lookup stays inside the physical register file (a wild
     * mapping models misrouted operand reads, not out-of-bounds
     * state). Returns the architectural index struck and the new
     * mapping via the out-parameters.
     */
    void injectMapFlip(std::uint64_t index, std::uint32_t bit,
                       RegIndex *arch, PhysReg *newPhys);

  private:
    bool isFpPhys(PhysReg p) const { return p >= _totalInt; }

    int _totalInt;
    int _totalFp;
    std::vector<PhysReg> _map;      ///< arch (0..63) -> phys
    std::vector<PhysReg> _freeInt;
    std::vector<PhysReg> _freeFp;
};

/**
 * Scoreboard of physical register readiness, tracked per cluster so
 * cross-cluster consumers observe the one-cycle bypass skew.
 */
class Scoreboard
{
  public:
    explicit Scoreboard(int phys_regs);

    /** Earliest issue cycle of a consumer of `phys` in `cluster`. */
    Cycle readyAt(PhysReg phys, int cluster) const;

    /** readyAt for both clusters at once ({cluster 0, cluster 1}), or
     *  nullptr while pending: the issue select's per-source read. */
    const Cycle *
    readyCycles(PhysReg phys) const
    {
        const State &s = _state[std::size_t(phys)];
        return s.isPending ? nullptr : s.ready;
    }

    /**
     * Record a result: same-cluster consumers may issue at `ready`,
     * cross-cluster consumers one cycle later. A producing cluster of -1
     * broadcasts with no skew.
     */
    void setReady(PhysReg phys, Cycle ready, int producing_cluster);

    /** Mark a register not-ready (rename-time allocation / replay). */
    void setPending(PhysReg phys) { _state[phys].isPending = true; }

    /** Mark ready-now (initial state / squash restore). */
    void setReadyNow(PhysReg phys);

    bool pending(PhysReg phys) const { return _state[phys].isPending; }

    /** Restore freshly-constructed state (campaign core reuse). */
    void
    reset()
    {
        _state.assign(_state.size(), State{});
    }

  private:
    struct State
    {
        Cycle ready[2] = {0, 0};
        bool isPending = false;
    };

    std::vector<State> _state;
};

} // namespace simalpha

#endif // SIMALPHA_CORE_RENAME_HH
