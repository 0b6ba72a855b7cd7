/**
 * @file
 * Unit tests for the MiniAlpha ISA: instruction classification, the
 * Table 1 latencies, operand extraction, the assembler, and program
 * image addressing. Parameterized suites sweep the opcode space.
 */

#include <gtest/gtest.h>

#include "isa/assembler.hh"
#include "isa/isa.hh"

using namespace simalpha;

TEST(Isa, Table1Latencies)
{
    // The paper's Table 1, verbatim.
    Instruction i;
    i.op = Op::Addq;
    EXPECT_EQ(i.latency(), 1);
    i.op = Op::Mulq;
    EXPECT_EQ(i.latency(), 7);
    i.op = Op::Ldq;
    EXPECT_EQ(i.latency(), 3);
    i.op = Op::Addt;
    EXPECT_EQ(i.latency(), 4);
    i.op = Op::Mult;
    EXPECT_EQ(i.latency(), 4);
    i.op = Op::Divs;
    EXPECT_EQ(i.latency(), 12);
    i.op = Op::Divt;
    EXPECT_EQ(i.latency(), 15);
    i.op = Op::Sqrts;
    EXPECT_EQ(i.latency(), 18);
    i.op = Op::Sqrtt;
    EXPECT_EQ(i.latency(), 33);
    i.op = Op::Ldt;
    EXPECT_EQ(i.latency(), 4);
    i.op = Op::Br;
    EXPECT_EQ(i.latency(), 3);
}

TEST(Isa, ControlClassification)
{
    Instruction i;
    i.op = Op::Beq;
    EXPECT_TRUE(i.isCondBranch());
    EXPECT_TRUE(i.isPcRelBranch());
    EXPECT_FALSE(i.isIndirect());
    i.op = Op::Br;
    EXPECT_FALSE(i.isCondBranch());
    EXPECT_TRUE(i.isPcRelBranch());
    i.op = Op::Bsr;
    EXPECT_TRUE(i.isCall());
    EXPECT_TRUE(i.isPcRelBranch());
    i.op = Op::Jmp;
    EXPECT_TRUE(i.isIndirect());
    EXPECT_FALSE(i.isPcRelBranch());
    i.op = Op::Jsr;
    EXPECT_TRUE(i.isCall());
    EXPECT_TRUE(i.isIndirect());
    i.op = Op::Ret;
    EXPECT_TRUE(i.isReturn());
    EXPECT_TRUE(i.isIndirect());
}

TEST(Isa, MemoryClassification)
{
    Instruction i;
    i.op = Op::Ldq;
    EXPECT_TRUE(i.isLoad());
    EXPECT_EQ(i.memBytes(), 8);
    i.op = Op::Ldl;
    EXPECT_TRUE(i.isLoad());
    EXPECT_EQ(i.memBytes(), 4);
    i.op = Op::Stl;
    EXPECT_TRUE(i.isStore());
    EXPECT_EQ(i.memBytes(), 4);
    i.op = Op::Stt;
    EXPECT_TRUE(i.isStore());
    EXPECT_TRUE(i.isFp());
    i.op = Op::Ldt;
    EXPECT_TRUE(i.isFp());
}

TEST(Isa, SrcAndDstRegisters)
{
    Instruction i;
    i.op = Op::Addq;
    i.ra = R(1);
    i.rb = R(2);
    i.rc = R(3);
    RegIndex srcs[3];
    EXPECT_EQ(i.srcRegs(srcs), 2);
    EXPECT_EQ(srcs[0], R(1));
    EXPECT_EQ(srcs[1], R(2));
    EXPECT_EQ(i.dstReg(), R(3));
}

TEST(Isa, ZeroRegisterNeverADependence)
{
    Instruction i;
    i.op = Op::Addq;
    i.ra = R(31);
    i.rb = R(2);
    i.rc = R(31);
    RegIndex srcs[3];
    EXPECT_EQ(i.srcRegs(srcs), 1);
    EXPECT_EQ(srcs[0], R(2));
    EXPECT_EQ(i.dstReg(), kNoReg);
}

TEST(Isa, ConditionalMoveReadsOldDest)
{
    Instruction i;
    i.op = Op::Cmoveq;
    i.ra = R(1);
    i.rb = R(2);
    i.rc = R(3);
    RegIndex srcs[3];
    EXPECT_EQ(i.srcRegs(srcs), 3);
    EXPECT_EQ(srcs[2], R(3));   // old destination value
}

TEST(Isa, LoadSourcesAreBaseOnly)
{
    Instruction i;
    i.op = Op::Ldq;
    i.rb = R(4);
    i.rc = R(5);
    RegIndex srcs[3];
    EXPECT_EQ(i.srcRegs(srcs), 1);
    EXPECT_EQ(srcs[0], R(4));
    EXPECT_EQ(i.dstReg(), R(5));
}

TEST(Isa, StoreSourcesIncludeData)
{
    Instruction i;
    i.op = Op::Stq;
    i.ra = R(6);
    i.rb = R(4);
    RegIndex srcs[3];
    EXPECT_EQ(i.srcRegs(srcs), 2);
    EXPECT_EQ(i.dstReg(), kNoReg);
}

TEST(Isa, CallLinkIsDestination)
{
    Instruction i;
    i.op = Op::Bsr;
    i.ra = R(26);
    EXPECT_EQ(i.dstReg(), R(26));
    i.op = Op::Jsr;
    i.ra = R(26);
    i.rb = R(1);
    RegIndex srcs[3];
    EXPECT_EQ(i.srcRegs(srcs), 1);   // rb only
    EXPECT_EQ(i.dstReg(), R(26));
}

TEST(Isa, FpRegisterIndexing)
{
    EXPECT_TRUE(isFpRegIndex(F(0)));
    EXPECT_FALSE(isFpRegIndex(R(31)));
    EXPECT_TRUE(isZeroRegIndex(R(31)));
    EXPECT_TRUE(isZeroRegIndex(F(31)));
    EXPECT_FALSE(isZeroRegIndex(F(30)));
}

TEST(Isa, DisassembleSamples)
{
    Instruction i;
    i.op = Op::Addq;
    i.ra = R(1);
    i.rb = R(2);
    i.rc = R(3);
    EXPECT_EQ(i.disassemble(), "addq r1, r2, r3");
    i.op = Op::Ldq;
    i.rb = R(4);
    i.rc = R(5);
    i.imm = 16;
    EXPECT_EQ(i.disassemble(), "ldq r5, 16(r4)");
    i.op = Op::Unop;
    EXPECT_EQ(i.disassemble(), "unop");
}

/** Every opcode must classify, name, and disassemble without tripping
 *  internal assertions. */
class OpcodeSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(OpcodeSweep, ClassifiesAndPrints)
{
    Instruction i;
    i.op = Op(GetParam());
    i.ra = R(1);
    i.rb = R(2);
    i.rc = R(3);
    i.target = 0;
    EXPECT_GT(i.latency(), 0);
    EXPECT_NE(opName(i.op), nullptr);
    EXPECT_FALSE(i.disassemble().empty());
    RegIndex srcs[3];
    int n = i.srcRegs(srcs);
    EXPECT_GE(n, 0);
    EXPECT_LE(n, 3);
    // Exactly one of the top-level classes (or none for nop/halt).
    int classes = int(i.isMem()) + int(i.isControl()) +
                  int(i.isNop()) + int(i.isHalt());
    EXPECT_LE(classes, 1);
}

INSTANTIATE_TEST_SUITE_P(AllOpcodes, OpcodeSweep,
                         ::testing::Range(0, int(Op::Halt) + 1));

/** The shared decode must say exactly what the Instruction predicates
 *  say, for every opcode and operand pattern: the emulator and both
 *  timing models read only the record. */
TEST(Decode, RecordAgreesWithPredicatesForEveryOpAndOperandPattern)
{
    const RegIndex regs[] = {intReg(1), intReg(kIntZeroReg), fpReg(2),
                             fpReg(kFpZeroReg), kNoReg};
    for (int op = 0; op <= int(Op::Halt); op++) {
        for (RegIndex ra : regs) {
            for (RegIndex rb : regs) {
                for (RegIndex rc : regs) {
                    Instruction i;
                    i.op = Op(op);
                    i.ra = ra;
                    i.rb = rb;
                    i.rc = rc;
                    i.imm = -24;
                    i.target = 7;
                    SCOPED_TRACE(i.disassemble());
                    DecodedInst d = decode(i);
                    EXPECT_EQ(d.handler, std::uint8_t(i.op));
                    EXPECT_EQ(d.cls, i.opClass());
                    EXPECT_EQ(d.latency, i.latency());
                    EXPECT_EQ(d.memBytes, i.memBytes());
                    EXPECT_EQ(d.isLoad(), i.isLoad());
                    EXPECT_EQ(d.isStore(), i.isStore());
                    EXPECT_EQ(d.isMem(), i.isMem());
                    EXPECT_EQ(d.isFpQueue(), i.isFp() && !i.isMem());
                    EXPECT_EQ(d.isControl(), i.isControl());
                    EXPECT_EQ(d.isCondBranch(), i.isCondBranch());
                    EXPECT_EQ(d.isPcRel(), i.isPcRelBranch());
                    EXPECT_EQ(d.isIndirect(), i.isIndirect());
                    EXPECT_EQ(d.isCall(), i.isCall());
                    EXPECT_EQ(d.isReturn(), i.isReturn());
                    EXPECT_EQ(d.isNop(), i.isNop());
                    EXPECT_EQ(d.isHalt(), i.isHalt());
                    RegIndex srcs[3];
                    int n = i.srcRegs(srcs);
                    ASSERT_EQ(d.numSrcs, n);
                    for (int k = 0; k < 3; k++)
                        EXPECT_EQ(d.srcs[k], k < n ? srcs[k] : kNoReg);
                    EXPECT_EQ(d.archDst, i.dstReg());
                    EXPECT_EQ(d.imm, -24);
                    EXPECT_EQ(d.target, 7);
                    EXPECT_EQ(d.targetPc, Program::kTextBase + 28);
                }
            }
        }
    }
}

TEST(Decode, OperandsDropZeroRegistersAndKeepCmovAndLinkRegisters)
{
    Instruction cmov;
    cmov.op = Op::Cmovne;
    cmov.ra = intReg(1);
    cmov.rb = intReg(kIntZeroReg);
    cmov.rc = intReg(3);
    DecodedInst d = decode(cmov);
    ASSERT_EQ(d.numSrcs, 2);    // ra and the old rc; r31 dropped
    EXPECT_EQ(d.srcs[0], intReg(1));
    EXPECT_EQ(d.srcs[1], intReg(3));
    EXPECT_EQ(d.archDst, intReg(3));

    Instruction bsr;
    bsr.op = Op::Bsr;
    bsr.ra = intReg(26);
    bsr.target = 0;
    d = decode(bsr);
    EXPECT_EQ(d.numSrcs, 0);
    EXPECT_EQ(d.archDst, intReg(26));   // the link register
    EXPECT_EQ(d.dst, intReg(26));
    EXPECT_TRUE(d.isCall() && d.isPcRel() && d.isControl());

    Instruction jsr;
    jsr.op = Op::Jsr;
    jsr.ra = intReg(kIntZeroReg);       // link discarded
    jsr.rb = intReg(27);
    d = decode(jsr);
    ASSERT_EQ(d.numSrcs, 1);
    EXPECT_EQ(d.srcs[0], intReg(27));
    EXPECT_EQ(d.archDst, kNoReg);
    EXPECT_EQ(d.dst, DecodedInst::kSinkSlot);
    EXPECT_TRUE(d.isCall() && d.isIndirect() && !d.isPcRel());

    Instruction addt;
    addt.op = Op::Addt;
    addt.ra = fpReg(kFpZeroReg);
    addt.rb = fpReg(4);
    addt.rc = fpReg(5);
    d = decode(addt);
    ASSERT_EQ(d.numSrcs, 1);
    EXPECT_EQ(d.srcs[0], fpReg(4));
    EXPECT_EQ(d.srcA, DecodedInst::kZeroSlot);
    EXPECT_TRUE(d.isFpQueue());
}

TEST(Decode, DecodedAtIndexesTheTableAndIsUnopOutsideIt)
{
    ProgramBuilder b("t");
    b.lda(R(1), 5);
    b.halt();
    Program p = b.finish();
    const std::vector<DecodedInst> &table = p.decoded();
    ASSERT_EQ(table.size(), p.text.size());
    for (std::size_t i = 0; i < table.size(); i++) {
        EXPECT_EQ(table[i], decode(p.text[i]));
        EXPECT_EQ(&p.decodedAt(p.pcOf(i)), &table[i]);
    }
    const DecodedInst &off = p.decodedAt(0xDEAD0000);
    EXPECT_EQ(off, decode(p.fetch(0xDEAD0000)));
    EXPECT_TRUE(off.isNop());
    EXPECT_EQ(off.numSrcs, 0);
    EXPECT_EQ(off.archDst, kNoReg);
}

TEST(Program, PcIndexRoundTrip)
{
    ProgramBuilder b("t");
    b.unop(10);
    b.halt();
    Program p = b.finish();
    for (std::size_t i = 0; i < p.text.size(); i++)
        EXPECT_EQ(p.indexOf(p.pcOf(i)), std::int64_t(i));
    EXPECT_EQ(p.indexOf(p.textBase() - 4), -1);
    EXPECT_EQ(p.indexOf(p.pcOf(p.text.size())), -1);
    EXPECT_EQ(p.indexOf(p.textBase() + 2), -1);   // misaligned
}

TEST(Program, FetchOutOfRangeIsUnop)
{
    ProgramBuilder b("t");
    b.halt();
    Program p = b.finish();
    EXPECT_TRUE(p.fetch(0xDEAD0000).isNop());
}

TEST(Assembler, LabelsResolveForwardAndBackward)
{
    ProgramBuilder b("t");
    b.label("start");
    b.br("end");        // forward reference
    b.unop(3);
    b.label("end");
    b.br("start");      // backward reference
    b.halt();
    Program p = b.finish();
    EXPECT_EQ(p.text[0].target, 4);
    EXPECT_EQ(p.text[4].target, 0);
}

TEST(Assembler, AlignOctawordPads)
{
    ProgramBuilder b("t");
    b.unop(1);
    b.alignOctaword();
    EXPECT_EQ(b.here() % 4, 0u);
    b.alignOctaword(2);
    EXPECT_EQ(b.here() % 4, 2u);
}

TEST(Assembler, DataWordsAndLabels)
{
    ProgramBuilder b("t");
    b.dataWord(0x1000, 99);
    b.label("func");
    b.halt();
    b.dataWordLabel(0x1008, "func");
    Program p = b.finish();
    ASSERT_EQ(p.data.size(), 2u);
    EXPECT_EQ(p.data[0].second, 99u);
    EXPECT_EQ(p.data[1].second, p.pcOf(0));
}

TEST(Assembler, EmitsExpectedEncoding)
{
    ProgramBuilder b("t");
    b.ldq(R(5), -8, R(6));
    b.stl(R(1), 12, R(2));
    Program p = b.finish();
    EXPECT_EQ(p.text[0].op, Op::Ldq);
    EXPECT_EQ(p.text[0].rc, R(5));
    EXPECT_EQ(p.text[0].imm, -8);
    EXPECT_EQ(p.text[1].op, Op::Stl);
    EXPECT_EQ(p.text[1].ra, R(1));
}
