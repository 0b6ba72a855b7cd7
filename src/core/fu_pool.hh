/**
 * @file
 * The 21264 execution pipes: four integer pipes arranged as two clusters
 * (each with an upper and a lower subcluster) and two floating-point
 * pipes. The integer mix is one adder/multiplier plus three adders;
 * memory operations issue through the lower subclusters; branches and
 * multiplies through the upper ones.
 *
 * The sim-initial FU-mix bug (two adders + two multipliers) is modeled
 * as an alternate pipe capability table.
 */

#ifndef SIMALPHA_CORE_FU_POOL_HH
#define SIMALPHA_CORE_FU_POOL_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "isa/isa.hh"

namespace simalpha {

class FuPool
{
  public:
    /**
     * @param wrong_mix install the buggy two-adder/two-multiplier mix
     */
    explicit FuPool(bool wrong_mix);

    // ---- Per-pipe arbitration interface (the issue stage walks the
    // ---- pipes and gives each to its oldest ready requester) --------
    int numPipes() const { return int(_pipes.size()); }
    int pipeCluster(int pipe) const { return _pipes[pipe].cluster; }
    bool pipeIsFp(int pipe) const { return _pipes[pipe].cluster < 0; }

    /**
     * Pipes (bit i = pipe i) whose capability and subcluster rules
     * admit an op of class @p cls with the given slot assignment: the
     * static half of pipeCanIssue, tabulated once at construction.
     */
    std::uint8_t
    fitMask(OpClass cls, bool slotted_upper, bool slot_restrict) const
    {
        return _fit[slot_restrict][slotted_upper][std::size_t(cls)];
    }

    /** Pipes that can accept an op this cycle (the dynamic half). */
    std::uint8_t
    freeMask(Cycle now) const
    {
        if (now >= _allFreeFrom)
            return std::uint8_t((1u << _pipes.size()) - 1);
        std::uint8_t mask = 0;
        for (std::size_t i = 0; i < _pipes.size(); i++)
            if (_pipes[i].lastIssue != now && _pipes[i].busyUntil <= now)
                mask |= std::uint8_t(1u << i);
        return mask;
    }

    /** Can this pipe execute `cls` this cycle (capability + busy)?
     *  Evaluates the capability rules directly, not the fitMask
     *  table, so the issue stage's reference scan checks the table. */
    bool pipeCanIssue(int pipe, OpClass cls, bool slotted_upper,
                      bool slot_restrict, Cycle now) const;

    /** Reserve a specific pipe for one op this cycle. */
    void reservePipe(int pipe, OpClass cls, Cycle now);

    /** Restore freshly-constructed state (campaign core reuse); the
     *  capability table is fixed by the mix, only timing resets. */
    void
    reset()
    {
        for (Pipe &p : _pipes) {
            p.lastIssue = kNoCycle;
            p.busyUntil = 0;
        }
        _allFreeFrom = 0;
    }

  private:
    struct Pipe
    {
        int cluster;        ///< 0/1 integer clusters, -1 fp
        bool upper;
        bool canAlu;
        bool canMul;
        bool canMem;
        bool canFpAdd;      ///< fp add/div/sqrt pipe
        bool canFpMul;
        Cycle lastIssue = kNoCycle;  ///< pipelined: one issue per cycle
        Cycle busyUntil = 0;         ///< unpipelined occupancy
    };

    bool pipeFits(const Pipe &p, OpClass cls, bool slotted_upper,
                  bool slot_restrict) const;
    static bool unpipelined(OpClass cls);
    static int occupancy(OpClass cls);

    static constexpr std::size_t kOpClasses =
        std::size_t(OpClass::Halt) + 1;

    std::vector<Pipe> _pipes;
    bool _wrongMix;
    /** fitMask table: [slot_restrict][slotted_upper][op class]. */
    std::uint8_t _fit[2][2][kOpClasses] = {};
    /** From this cycle on every pipe is free (no issue, no occupancy):
     *  freeMask's shortcut. */
    Cycle _allFreeFrom = 0;
};

} // namespace simalpha

#endif // SIMALPHA_CORE_FU_POOL_HH
