#include "isa.hh"

#include <sstream>

#include "common/logging.hh"

namespace simalpha {

OpClass
Instruction::opClass() const
{
    switch (op) {
      case Op::Addq: case Op::Subq: case Op::And: case Op::Bis:
      case Op::Xor: case Op::Sll: case Op::Srl: case Op::Cmpeq:
      case Op::Cmplt: case Op::Cmple: case Op::Lda:
      case Op::Cmoveq: case Op::Cmovne:
        return OpClass::IntAlu;
      case Op::Mulq:
        return OpClass::IntMul;
      case Op::Ldq: case Op::Ldl:
        return OpClass::IntLoad;
      case Op::Stq: case Op::Stl:
        return OpClass::IntStore;
      case Op::Ldt:
        return OpClass::FpLoad;
      case Op::Stt:
        return OpClass::FpStore;
      case Op::Addt: case Op::Subt: case Op::Cpys:
        return OpClass::FpAdd;
      case Op::Mult:
        return OpClass::FpMul;
      case Op::Divt:
        return OpClass::FpDivD;
      case Op::Divs:
        return OpClass::FpDivS;
      case Op::Sqrtt:
        return OpClass::FpSqrtD;
      case Op::Sqrts:
        return OpClass::FpSqrtS;
      case Op::Beq: case Op::Bne: case Op::Blt:
      case Op::Ble: case Op::Bgt: case Op::Bge:
        return OpClass::CondBranch;
      case Op::Br:
        return OpClass::UncondBranch;
      case Op::Bsr: case Op::Jsr:
        return OpClass::Call;
      case Op::Jmp:
        return OpClass::IndirectJump;
      case Op::Ret:
        return OpClass::Return;
      case Op::Unop:
        return OpClass::Nop;
      case Op::Halt:
        return OpClass::Halt;
    }
    panic("unreachable opcode %d", int(op));
}

bool
Instruction::isCondBranch() const
{
    switch (op) {
      case Op::Beq: case Op::Bne: case Op::Blt:
      case Op::Ble: case Op::Bgt: case Op::Bge:
        return true;
      default:
        return false;
    }
}

bool
Instruction::isPcRelBranch() const
{
    return isCondBranch() || op == Op::Br || op == Op::Bsr;
}

bool
Instruction::isIndirect() const
{
    return op == Op::Jmp || op == Op::Jsr || op == Op::Ret;
}

bool
Instruction::isFp() const
{
    switch (opClass()) {
      case OpClass::FpAdd: case OpClass::FpMul:
      case OpClass::FpDivS: case OpClass::FpDivD:
      case OpClass::FpSqrtS: case OpClass::FpSqrtD:
      case OpClass::FpLoad: case OpClass::FpStore:
        return true;
      default:
        return false;
    }
}

int
Instruction::latency() const
{
    // Table 1 of the paper.
    switch (opClass()) {
      case OpClass::IntAlu:
        return 1;
      case OpClass::IntMul:
        return 7;
      case OpClass::IntLoad:
        return 3;
      case OpClass::IntStore: case OpClass::FpStore:
        return 1;
      case OpClass::FpAdd: case OpClass::FpMul:
        return 4;
      case OpClass::FpDivS:
        return 12;
      case OpClass::FpDivD:
        return 15;
      case OpClass::FpSqrtS:
        return 18;
      case OpClass::FpSqrtD:
        return 33;
      case OpClass::FpLoad:
        return 4;
      case OpClass::CondBranch:
        return 1;
      case OpClass::UncondBranch: case OpClass::Call:
      case OpClass::IndirectJump: case OpClass::Return:
        return 3;
      case OpClass::Nop: case OpClass::Halt:
        return 1;
    }
    panic("unreachable op class");
}

namespace {

bool
readsRa(Op op)
{
    switch (op) {
      case Op::Lda: case Op::Br: case Op::Bsr: case Op::Jsr:
      case Op::Ldq: case Op::Ldl: case Op::Ldt:
      case Op::Unop: case Op::Halt:
      case Op::Sqrtt: case Op::Sqrts: case Op::Jmp: case Op::Ret:
        return false;
      default:
        return true;
    }
}

bool
readsRb(Op op)
{
    switch (op) {
      case Op::Beq: case Op::Bne: case Op::Blt: case Op::Ble:
      case Op::Bgt: case Op::Bge: case Op::Br: case Op::Bsr:
      case Op::Unop: case Op::Halt:
        return false;
      default:
        return true;
    }
}

} // namespace

int
Instruction::srcRegs(RegIndex out[3]) const
{
    int n = 0;
    auto add = [&](RegIndex r) {
        if (r != kNoReg && !isZeroRegIndex(r))
            out[n++] = r;
    };
    if (readsRa(op))
        add(ra);
    if (readsRb(op))
        add(rb);
    // Conditional moves additionally read the old destination.
    if (op == Op::Cmoveq || op == Op::Cmovne)
        add(rc);
    return n;
}

RegIndex
Instruction::dstReg() const
{
    RegIndex d = kNoReg;
    switch (op) {
      case Op::Stq: case Op::Stl: case Op::Stt:
      case Op::Beq: case Op::Bne: case Op::Blt: case Op::Ble:
      case Op::Bgt: case Op::Bge: case Op::Br: case Op::Jmp:
      case Op::Ret: case Op::Unop: case Op::Halt:
        d = kNoReg;
        break;
      case Op::Bsr: case Op::Jsr:
        d = ra;     // link register
        break;
      default:
        d = rc;
        break;
    }
    if (d != kNoReg && isZeroRegIndex(d))
        d = kNoReg;
    return d;
}

const char *
opName(Op op)
{
    switch (op) {
      case Op::Addq: return "addq";
      case Op::Subq: return "subq";
      case Op::Mulq: return "mulq";
      case Op::And: return "and";
      case Op::Bis: return "bis";
      case Op::Xor: return "xor";
      case Op::Sll: return "sll";
      case Op::Srl: return "srl";
      case Op::Cmpeq: return "cmpeq";
      case Op::Cmplt: return "cmplt";
      case Op::Cmple: return "cmple";
      case Op::Lda: return "lda";
      case Op::Cmoveq: return "cmoveq";
      case Op::Cmovne: return "cmovne";
      case Op::Ldq: return "ldq";
      case Op::Stq: return "stq";
      case Op::Ldl: return "ldl";
      case Op::Stl: return "stl";
      case Op::Ldt: return "ldt";
      case Op::Stt: return "stt";
      case Op::Addt: return "addt";
      case Op::Subt: return "subt";
      case Op::Mult: return "mult";
      case Op::Divt: return "divt";
      case Op::Divs: return "divs";
      case Op::Sqrtt: return "sqrtt";
      case Op::Sqrts: return "sqrts";
      case Op::Cpys: return "cpys";
      case Op::Beq: return "beq";
      case Op::Bne: return "bne";
      case Op::Blt: return "blt";
      case Op::Ble: return "ble";
      case Op::Bgt: return "bgt";
      case Op::Bge: return "bge";
      case Op::Br: return "br";
      case Op::Bsr: return "bsr";
      case Op::Jmp: return "jmp";
      case Op::Jsr: return "jsr";
      case Op::Ret: return "ret";
      case Op::Unop: return "unop";
      case Op::Halt: return "halt";
    }
    return "???";
}

namespace {

std::string
regName(RegIndex r)
{
    if (r == kNoReg)
        return "-";
    std::ostringstream os;
    if (isFpRegIndex(r))
        os << "f" << int(r - kNumIntRegs);
    else
        os << "r" << int(r);
    return os.str();
}

} // namespace

std::string
Instruction::disassemble() const
{
    std::ostringstream os;
    os << opName(op);
    if (isNop() || isHalt())
        return os.str();
    os << " ";
    if (isMem()) {
        RegIndex v = isLoad() ? rc : ra;
        os << regName(v) << ", " << imm << "(" << regName(rb) << ")";
    } else if (isCondBranch()) {
        os << regName(ra) << ", @" << target;
    } else if (op == Op::Br) {
        os << "@" << target;
    } else if (op == Op::Bsr) {
        os << regName(ra) << ", @" << target;
    } else if (isIndirect()) {
        os << regName(ra) << ", (" << regName(rb) << ")";
    } else if (op == Op::Lda) {
        os << regName(rc) << ", " << imm << "(" << regName(rb) << ")";
    } else {
        os << regName(ra) << ", " << regName(rb) << ", " << regName(rc);
    }
    return os.str();
}

DecodedInst
decode(const Instruction &inst)
{
    auto src_slot = [](RegIndex r) -> std::uint8_t {
        if (r == kNoReg || isZeroRegIndex(r))
            return DecodedInst::kZeroSlot;
        return r;
    };
    auto dst_slot = [](RegIndex r) -> std::uint8_t {
        if (r == kNoReg || isZeroRegIndex(r))
            return DecodedInst::kSinkSlot;
        return r;
    };

    DecodedInst d;
    d.handler = std::uint8_t(inst.op);
    d.srcA = src_slot(inst.ra);
    d.srcB = src_slot(inst.rb);
    // Calls link through ra; everything else writes rc.
    d.dst = dst_slot(inst.isCall() ? inst.ra : inst.rc);
    d.target = inst.target;
    d.targetPc = inst.target >= 0
                     ? Program::kTextBase + 4 * Addr(inst.target)
                     : 0;
    d.imm = inst.imm;

    d.cls = inst.opClass();
    d.latency = std::uint8_t(inst.latency());
    d.memBytes = std::uint8_t(inst.memBytes());
    d.numSrcs = std::uint8_t(inst.srcRegs(d.srcs));
    d.archDst = inst.dstReg();
    const std::pair<bool, DecodedInst::Flag> flags[] = {
        {inst.isLoad(), DecodedInst::kLoad},
        {inst.isStore(), DecodedInst::kStore},
        {inst.isFp() && !inst.isMem(), DecodedInst::kFpQueue},
        {inst.isControl(), DecodedInst::kControl},
        {inst.isCondBranch(), DecodedInst::kCondBranch},
        {inst.isPcRelBranch(), DecodedInst::kPcRel},
        {inst.isIndirect(), DecodedInst::kIndirect},
        {inst.isCall(), DecodedInst::kCall},
        {inst.isReturn(), DecodedInst::kReturn},
        {inst.isNop(), DecodedInst::kNop},
        {inst.isHalt(), DecodedInst::kHalt},
    };
    for (const auto &[set, flag] : flags)
        if (set)
            d.flags |= flag;
    return d;
}

std::shared_ptr<const std::vector<DecodedInst>>
Program::buildDecoded() const
{
    auto table = std::make_shared<std::vector<DecodedInst>>();
    table->reserve(text.size());
    for (const Instruction &inst : text)
        table->push_back(decode(inst));
    return table;
}

const Instruction &
Program::fetch(Addr pc) const
{
    static const Instruction unop{};
    std::int64_t idx = indexOf(pc);
    if (idx < 0)
        return unop;
    return text[std::size_t(idx)];
}

} // namespace simalpha
