#include "rename.hh"

#include "common/logging.hh"

namespace simalpha {

RenameUnit::RenameUnit(int phys_int, int phys_fp)
    : _totalInt(phys_int), _totalFp(phys_fp),
      _map(kNumIntRegs + kNumFpRegs, kNoPhys)
{
    // Architectural state lives in the first registers of each class;
    // the remainder start on the free lists.
    if (phys_int < kNumIntRegs || phys_fp < kNumFpRegs)
        fatal("need at least %d int / %d fp physical registers",
              kNumIntRegs, kNumFpRegs);
    for (int a = 0; a < kNumIntRegs; a++)
        _map[a] = PhysReg(a);
    for (int a = 0; a < kNumFpRegs; a++)
        _map[kNumIntRegs + a] = PhysReg(_totalInt + a);
    for (int p = kNumIntRegs; p < phys_int; p++)
        _freeInt.push_back(PhysReg(p));
    for (int p = kNumFpRegs; p < phys_fp; p++)
        _freeFp.push_back(PhysReg(_totalInt + p));
}

void
RenameUnit::reset()
{
    // Identical to the constructor body, reusing the vector storage.
    for (int a = 0; a < kNumIntRegs; a++)
        _map[a] = PhysReg(a);
    for (int a = 0; a < kNumFpRegs; a++)
        _map[kNumIntRegs + a] = PhysReg(_totalInt + a);
    _freeInt.clear();
    _freeFp.clear();
    for (int p = kNumIntRegs; p < _totalInt; p++)
        _freeInt.push_back(PhysReg(p));
    for (int p = kNumFpRegs; p < _totalFp; p++)
        _freeFp.push_back(PhysReg(_totalInt + p));
}

PhysReg
RenameUnit::allocate(RegIndex arch, PhysReg &old_phys)
{
    bool fp = isFpRegIndex(arch);
    auto &free_list = fp ? _freeFp : _freeInt;
    if (free_list.empty())
        return kNoPhys;
    PhysReg p = free_list.back();
    free_list.pop_back();
    old_phys = _map[arch];
    _map[arch] = p;
    return p;
}

void
RenameUnit::undo(RegIndex arch, PhysReg phys, PhysReg old_phys)
{
    sim_assert(_map[arch] == phys);
    _map[arch] = old_phys;
    if (isFpPhys(phys))
        _freeFp.push_back(phys);
    else
        _freeInt.push_back(phys);
}

void
RenameUnit::release(PhysReg old_phys)
{
    if (old_phys == kNoPhys)
        return;
    if (isFpPhys(old_phys))
        _freeFp.push_back(old_phys);
    else
        _freeInt.push_back(old_phys);
}

void
RenameUnit::injectMapFlip(std::uint64_t index, std::uint32_t bit,
                          RegIndex *arch, PhysReg *newPhys)
{
    std::size_t a = std::size_t(index % _map.size());
    PhysReg old = _map[a];
    int base = isFpPhys(old) ? _totalInt : 0;
    int count = isFpPhys(old) ? _totalFp : _totalInt;
    // XOR within 7 bits (the widest legal class is < 128 regs), then
    // fold back into the class so the corrupted mapping still names a
    // real physical register of the same kind.
    int rel = (int(old) - base) ^ (1 << (bit % 7));
    _map[a] = PhysReg(base + rel % count);
    if (arch)
        *arch = RegIndex(a);
    if (newPhys)
        *newPhys = _map[a];
}

Scoreboard::Scoreboard(int phys_regs)
    : _state(std::size_t(phys_regs))
{
}

Cycle
Scoreboard::readyAt(PhysReg phys, int cluster) const
{
    sim_assert(phys != kNoPhys);
    if (_state[phys].isPending)
        return kNoCycle;
    return _state[phys].ready[cluster & 1];
}

void
Scoreboard::setReady(PhysReg phys, Cycle ready, int producing_cluster)
{
    State &s = _state[phys];
    s.isPending = false;
    if (producing_cluster < 0) {
        s.ready[0] = s.ready[1] = ready;
    } else {
        s.ready[producing_cluster & 1] = ready;
        s.ready[(producing_cluster & 1) ^ 1] = ready + 1;
    }
}

void
Scoreboard::setReadyNow(PhysReg phys)
{
    _state[phys].isPending = false;
    _state[phys].ready[0] = 0;
    _state[phys].ready[1] = 0;
}

} // namespace simalpha
