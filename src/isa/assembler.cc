#include "assembler.hh"

#include "common/logging.hh"

namespace simalpha {

ProgramBuilder::ProgramBuilder(std::string name)
{
    _prog.name = std::move(name);
}

Instruction &
ProgramBuilder::emit(Op op)
{
    if (_finished)
        panic("emit after finish() on program '%s'", _prog.name.c_str());
    _prog.text.push_back(Instruction{});
    _prog.text.back().op = op;
    return _prog.text.back();
}

ProgramBuilder &
ProgramBuilder::label(const std::string &name)
{
    if (_labels.count(name))
        fatal("duplicate label '%s'", name.c_str());
    _labels[name] = std::int32_t(_prog.text.size());
    return *this;
}

#define THREE_OP(fn, opcode)                                                \
    ProgramBuilder &                                                        \
    ProgramBuilder::fn(RegIndex ra, RegIndex rb, RegIndex rc)               \
    {                                                                       \
        Instruction &i = emit(opcode);                                      \
        i.ra = ra; i.rb = rb; i.rc = rc;                                    \
        return *this;                                                       \
    }

THREE_OP(addq, Op::Addq)
THREE_OP(subq, Op::Subq)
THREE_OP(mulq, Op::Mulq)
THREE_OP(and_, Op::And)
THREE_OP(bis, Op::Bis)
THREE_OP(xor_, Op::Xor)
THREE_OP(sll, Op::Sll)
THREE_OP(srl, Op::Srl)
THREE_OP(cmpeq, Op::Cmpeq)
THREE_OP(cmplt, Op::Cmplt)
THREE_OP(cmple, Op::Cmple)
THREE_OP(cmoveq, Op::Cmoveq)
THREE_OP(cmovne, Op::Cmovne)
THREE_OP(addt, Op::Addt)
THREE_OP(subt, Op::Subt)
THREE_OP(mult, Op::Mult)
THREE_OP(divt, Op::Divt)
THREE_OP(divs, Op::Divs)

#undef THREE_OP

ProgramBuilder &
ProgramBuilder::lda(RegIndex rc, std::int64_t imm, RegIndex rb)
{
    Instruction &i = emit(Op::Lda);
    i.rb = rb; i.rc = rc; i.imm = imm;
    return *this;
}

ProgramBuilder &
ProgramBuilder::ldq(RegIndex rc, std::int64_t disp, RegIndex base)
{
    Instruction &i = emit(Op::Ldq);
    i.rc = rc; i.rb = base; i.imm = disp;
    return *this;
}

ProgramBuilder &
ProgramBuilder::stq(RegIndex ra, std::int64_t disp, RegIndex base)
{
    Instruction &i = emit(Op::Stq);
    i.ra = ra; i.rb = base; i.imm = disp;
    return *this;
}

ProgramBuilder &
ProgramBuilder::ldl(RegIndex rc, std::int64_t disp, RegIndex base)
{
    Instruction &i = emit(Op::Ldl);
    i.rc = rc; i.rb = base; i.imm = disp;
    return *this;
}

ProgramBuilder &
ProgramBuilder::stl(RegIndex ra, std::int64_t disp, RegIndex base)
{
    Instruction &i = emit(Op::Stl);
    i.ra = ra; i.rb = base; i.imm = disp;
    return *this;
}

ProgramBuilder &
ProgramBuilder::ldt(RegIndex fc, std::int64_t disp, RegIndex base)
{
    Instruction &i = emit(Op::Ldt);
    i.rc = fc; i.rb = base; i.imm = disp;
    return *this;
}

ProgramBuilder &
ProgramBuilder::stt(RegIndex fa, std::int64_t disp, RegIndex base)
{
    Instruction &i = emit(Op::Stt);
    i.ra = fa; i.rb = base; i.imm = disp;
    return *this;
}

ProgramBuilder &
ProgramBuilder::sqrtt(RegIndex fb, RegIndex fc)
{
    Instruction &i = emit(Op::Sqrtt);
    i.rb = fb; i.rc = fc;
    return *this;
}

ProgramBuilder &
ProgramBuilder::sqrts(RegIndex fb, RegIndex fc)
{
    Instruction &i = emit(Op::Sqrts);
    i.rb = fb; i.rc = fc;
    return *this;
}

ProgramBuilder &
ProgramBuilder::cpys(RegIndex fa, RegIndex fc)
{
    Instruction &i = emit(Op::Cpys);
    i.ra = fa; i.rb = fa; i.rc = fc;
    return *this;
}

ProgramBuilder &
ProgramBuilder::branchTo(Op op, RegIndex ra, const std::string &target)
{
    Instruction &i = emit(op);
    i.ra = ra;
    _fixups.emplace_back(_prog.text.size() - 1, target);
    return *this;
}

ProgramBuilder &
ProgramBuilder::beq(RegIndex ra, const std::string &t)
{ return branchTo(Op::Beq, ra, t); }

ProgramBuilder &
ProgramBuilder::bne(RegIndex ra, const std::string &t)
{ return branchTo(Op::Bne, ra, t); }

ProgramBuilder &
ProgramBuilder::blt(RegIndex ra, const std::string &t)
{ return branchTo(Op::Blt, ra, t); }

ProgramBuilder &
ProgramBuilder::ble(RegIndex ra, const std::string &t)
{ return branchTo(Op::Ble, ra, t); }

ProgramBuilder &
ProgramBuilder::bgt(RegIndex ra, const std::string &t)
{ return branchTo(Op::Bgt, ra, t); }

ProgramBuilder &
ProgramBuilder::bge(RegIndex ra, const std::string &t)
{ return branchTo(Op::Bge, ra, t); }

ProgramBuilder &
ProgramBuilder::br(const std::string &t)
{ return branchTo(Op::Br, kNoReg, t); }

ProgramBuilder &
ProgramBuilder::bsr(RegIndex link, const std::string &t)
{ return branchTo(Op::Bsr, link, t); }

ProgramBuilder &
ProgramBuilder::jmp(RegIndex rb)
{
    Instruction &i = emit(Op::Jmp);
    i.rb = rb;
    return *this;
}

ProgramBuilder &
ProgramBuilder::jsr(RegIndex link, RegIndex rb)
{
    Instruction &i = emit(Op::Jsr);
    i.ra = link; i.rb = rb;
    return *this;
}

ProgramBuilder &
ProgramBuilder::ret(RegIndex rb)
{
    Instruction &i = emit(Op::Ret);
    i.rb = rb;
    return *this;
}

ProgramBuilder &
ProgramBuilder::unop(int count)
{
    for (int i = 0; i < count; i++)
        emit(Op::Unop);
    return *this;
}

ProgramBuilder &
ProgramBuilder::halt()
{
    emit(Op::Halt);
    return *this;
}

ProgramBuilder &
ProgramBuilder::dataWord(Addr addr, RegVal value)
{
    _prog.data.emplace_back(addr, value);
    return *this;
}

ProgramBuilder &
ProgramBuilder::alignOctaword(int slot)
{
    sim_assert(slot >= 0 && slot < 4);
    while (int(_prog.text.size() % 4) != slot)
        emit(Op::Unop);
    return *this;
}

ProgramBuilder &
ProgramBuilder::dataWordLabel(Addr addr, const std::string &label)
{
    _dataFixups.emplace_back(addr, label);
    return *this;
}

Program
ProgramBuilder::finish()
{
    for (const auto &[index, name] : _fixups) {
        auto it = _labels.find(name);
        if (it == _labels.end())
            fatal("undefined label '%s' in program '%s'",
                  name.c_str(), _prog.name.c_str());
        _prog.text[index].target = it->second;
    }
    for (const auto &[addr, name] : _dataFixups) {
        auto it = _labels.find(name);
        if (it == _labels.end())
            fatal("undefined data label '%s' in program '%s'",
                  name.c_str(), _prog.name.c_str());
        _prog.data.emplace_back(addr,
                                _prog.pcOf(std::size_t(it->second)));
    }
    _fixups.clear();
    _dataFixups.clear();
    _finished = true;
    // Moved, not copied: a copy faults a large image (mesa's 8 MB) in
    // a second time.
    return std::move(_prog);
}

} // namespace simalpha
