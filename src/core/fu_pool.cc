#include "fu_pool.hh"

#include <algorithm>

#include "common/logging.hh"

namespace simalpha {

FuPool::FuPool(bool wrong_mix)
    : _wrongMix(wrong_mix)
{
    // Integer pipes: cluster 0 {upper, lower}, cluster 1 {upper, lower}.
    // Correct mix: all four execute ALU ops; only cluster 1's upper pipe
    // multiplies; lower pipes perform memory address generation.
    // Buggy mix: the two upper pipes are multipliers that cannot execute
    // plain ALU ops, halving add throughput (the E-I symptom).
    auto int_pipe = [&](int cluster, bool upper) {
        Pipe p{};
        p.cluster = cluster;
        p.upper = upper;
        if (wrong_mix) {
            p.canAlu = !upper;
            p.canMul = upper;
        } else {
            p.canAlu = true;
            p.canMul = upper && cluster == 1;
        }
        p.canMem = !upper;
        return p;
    };
    _pipes.push_back(int_pipe(0, true));
    _pipes.push_back(int_pipe(0, false));
    _pipes.push_back(int_pipe(1, true));
    _pipes.push_back(int_pipe(1, false));

    // Floating-point pipes: one add pipe (also divide/sqrt, unpipelined
    // for those) and one multiply pipe.
    Pipe fadd{};
    fadd.cluster = -1;
    fadd.canFpAdd = true;
    _pipes.push_back(fadd);
    Pipe fmul{};
    fmul.cluster = -1;
    fmul.canFpMul = true;
    _pipes.push_back(fmul);

    // Pipe sets are 8-bit masks (fitMask, freeMask).
    sim_assert(_pipes.size() <= 8);
    for (int restrict_slot = 0; restrict_slot < 2; restrict_slot++)
        for (int upper = 0; upper < 2; upper++)
            for (std::size_t cls = 0; cls < kOpClasses; cls++)
                for (std::size_t i = 0; i < _pipes.size(); i++)
                    if (pipeFits(_pipes[i], OpClass(cls), upper != 0,
                                 restrict_slot != 0))
                        _fit[restrict_slot][upper][cls] |=
                            std::uint8_t(1u << i);
}

bool
FuPool::unpipelined(OpClass cls)
{
    switch (cls) {
      case OpClass::FpDivS: case OpClass::FpDivD:
      case OpClass::FpSqrtS: case OpClass::FpSqrtD:
        return true;
      default:
        return false;
    }
}

int
FuPool::occupancy(OpClass cls)
{
    switch (cls) {
      case OpClass::FpDivS: return 12;
      case OpClass::FpDivD: return 15;
      case OpClass::FpSqrtS: return 18;
      case OpClass::FpSqrtD: return 33;
      default: return 1;
    }
}

bool
FuPool::pipeFits(const Pipe &p, OpClass cls, bool slotted_upper,
                 bool slot_restrict) const
{
    switch (cls) {
      case OpClass::FpAdd: case OpClass::FpDivS: case OpClass::FpDivD:
      case OpClass::FpSqrtS: case OpClass::FpSqrtD:
        return p.canFpAdd;
      case OpClass::FpMul:
        return p.canFpMul;
      case OpClass::FpLoad: case OpClass::FpStore:
      case OpClass::IntLoad: case OpClass::IntStore:
        // Memory ops use the lower pipes.
        return p.canMem;
      case OpClass::IntMul:
        return p.canMul;
      case OpClass::CondBranch: case OpClass::UncondBranch:
      case OpClass::Call: case OpClass::IndirectJump:
      case OpClass::Return:
        // Branches resolve in the upper pipes.
        if (!p.canAlu && !p.canMul)
            return false;
        return p.upper;
      default:
        // Plain ALU (and nop/halt placeholders).
        if (!p.canAlu)
            return false;
        // The buggy mix treats units as generic resources, so the
        // subcluster assignment does not constrain them.
        if (slot_restrict && !_wrongMix && p.upper != slotted_upper)
            return false;
        return true;
    }
}

bool
FuPool::pipeCanIssue(int pipe, OpClass cls, bool slotted_upper,
                     bool slot_restrict, Cycle now) const
{
    const Pipe &p = _pipes[std::size_t(pipe)];
    if (!pipeFits(p, cls, slotted_upper, slot_restrict))
        return false;
    return p.lastIssue != now && p.busyUntil <= now;
}

void
FuPool::reservePipe(int pipe, OpClass cls, Cycle now)
{
    Pipe &p = _pipes[std::size_t(pipe)];
    p.lastIssue = now;
    if (unpipelined(cls))
        p.busyUntil = now + Cycle(occupancy(cls));
    _allFreeFrom = std::max({_allFreeFrom, now + 1, p.busyUntil});
}

} // namespace simalpha
