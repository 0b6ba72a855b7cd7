/**
 * @file
 * Functional-emulator tests: architectural semantics of every opcode,
 * sparse memory behaviour, control flow, recursion, and the oracle
 * stream's buffering/rewind contract.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "core/oracle.hh"
#include "isa/assembler.hh"
#include "isa/emulator.hh"
#include "runner/campaign.hh"

using namespace simalpha;

namespace {

/** Run a program to completion; return the emulator for inspection. */
Emulator
runToHalt(const Program &p, std::uint64_t limit = 100000)
{
    Emulator emu(p);
    std::uint64_t n = 0;
    while (!emu.halted() && n++ < limit)
        emu.step();
    EXPECT_TRUE(emu.halted()) << "program did not halt";
    return emu;
}

} // namespace

TEST(SparseMemory, ZeroFilled)
{
    SparseMemory m;
    EXPECT_EQ(m.read64(0x12345678), 0u);
    EXPECT_EQ(m.read32(0xFFFF), 0u);
}

TEST(SparseMemory, RoundTrip64And32)
{
    SparseMemory m;
    m.write64(0x1000, 0x1122334455667788ULL);
    EXPECT_EQ(m.read64(0x1000), 0x1122334455667788ULL);
    EXPECT_EQ(m.read32(0x1000), 0x55667788u);
    EXPECT_EQ(m.read32(0x1004), 0x11223344u);
    m.write32(0x1004, 0xAABBCCDDu);
    EXPECT_EQ(m.read64(0x1000), 0xAABBCCDD55667788ULL);
}

TEST(SparseMemory, PageStraddle)
{
    SparseMemory m;
    // 4 KB pages: write across the boundary.
    m.write64(0xFFC, 0xDEADBEEFCAFEF00DULL);
    EXPECT_EQ(m.read64(0xFFC), 0xDEADBEEFCAFEF00DULL);
    EXPECT_GE(m.pagesTouched(), 2u);
}

TEST(Emulator, ArithmeticSemantics)
{
    ProgramBuilder b("t");
    b.lda(R(1), 10);
    b.lda(R(2), 3);
    b.addq(R(1), R(2), R(3));   // 13
    b.subq(R(1), R(2), R(4));   // 7
    b.mulq(R(1), R(2), R(5));   // 30
    b.and_(R(1), R(2), R(6));   // 2
    b.bis(R(1), R(2), R(7));    // 11
    b.xor_(R(1), R(2), R(8));   // 9
    b.halt();
    Emulator emu = runToHalt(b.finish());
    EXPECT_EQ(emu.readIntReg(3), 13u);
    EXPECT_EQ(emu.readIntReg(4), 7u);
    EXPECT_EQ(emu.readIntReg(5), 30u);
    EXPECT_EQ(emu.readIntReg(6), 2u);
    EXPECT_EQ(emu.readIntReg(7), 11u);
    EXPECT_EQ(emu.readIntReg(8), 9u);
}

TEST(Emulator, ShiftsAndCompares)
{
    ProgramBuilder b("t");
    b.lda(R(1), 1);
    b.lda(R(2), 4);
    b.sll(R(1), R(2), R(3));    // 16
    b.srl(R(3), R(1), R(4));    // 8
    b.cmpeq(R(3), R(3), R(5));  // 1
    b.cmplt(R(4), R(3), R(6));  // 8 < 16 -> 1
    b.cmple(R(3), R(4), R(7));  // 16 <= 8 -> 0
    b.halt();
    Emulator emu = runToHalt(b.finish());
    EXPECT_EQ(emu.readIntReg(3), 16u);
    EXPECT_EQ(emu.readIntReg(4), 8u);
    EXPECT_EQ(emu.readIntReg(5), 1u);
    EXPECT_EQ(emu.readIntReg(6), 1u);
    EXPECT_EQ(emu.readIntReg(7), 0u);
}

TEST(Emulator, SignedCompare)
{
    ProgramBuilder b("t");
    b.lda(R(1), -5);
    b.lda(R(2), 3);
    b.cmplt(R(1), R(2), R(3));  // -5 < 3 signed -> 1
    b.halt();
    Emulator emu = runToHalt(b.finish());
    EXPECT_EQ(emu.readIntReg(3), 1u);
}

TEST(Emulator, ConditionalMoves)
{
    ProgramBuilder b("t");
    b.lda(R(1), 0);
    b.lda(R(2), 7);
    b.lda(R(3), 100);
    b.cmoveq(R(1), R(2), R(3)); // r1==0 -> r3=7
    b.lda(R(4), 200);
    b.cmovne(R(1), R(2), R(4)); // r1!=0 false -> r4 stays
    b.halt();
    Emulator emu = runToHalt(b.finish());
    EXPECT_EQ(emu.readIntReg(3), 7u);
    EXPECT_EQ(emu.readIntReg(4), 200u);
}

TEST(Emulator, ZeroRegisterReadsZeroAndIgnoresWrites)
{
    ProgramBuilder b("t");
    b.lda(R(31), 55);               // write to r31: discarded
    b.addq(R(31), R(31), R(1));     // 0 + 0
    b.halt();
    Emulator emu = runToHalt(b.finish());
    EXPECT_EQ(emu.readIntReg(1), 0u);
    EXPECT_EQ(emu.readIntReg(31), 0u);
}

TEST(Emulator, LoadStoreRoundTrip)
{
    const Addr addr = Program::kDataBase;
    ProgramBuilder b("t");
    b.dataWord(addr, 0x123456789ABCDEF0ULL);
    b.lda(R(20), 0x14000);
    b.lda(R(11), 16);
    b.sll(R(20), R(11), R(20));     // r20 = 0x140000000
    b.ldq(R(1), 0, R(20));
    b.stq(R(1), 8, R(20));
    b.ldq(R(2), 8, R(20));
    b.ldl(R(3), 0, R(20));          // sext low 32 bits
    b.stl(R(1), 16, R(20));
    b.ldl(R(4), 16, R(20));
    b.halt();
    Emulator emu = runToHalt(b.finish());
    EXPECT_EQ(emu.readIntReg(1), 0x123456789ABCDEF0ULL);
    EXPECT_EQ(emu.readIntReg(2), 0x123456789ABCDEF0ULL);
    // 0x9ABCDEF0 sign-extends to a negative value.
    EXPECT_EQ(emu.readIntReg(3), 0xFFFFFFFF9ABCDEF0ULL);
    EXPECT_EQ(emu.readIntReg(4), 0xFFFFFFFF9ABCDEF0ULL);
}

TEST(Emulator, FloatingPoint)
{
    const Addr addr = Program::kDataBase;
    ProgramBuilder b("t");
    double three = 3.0, two = 2.0;
    RegVal three_bits, two_bits;
    static_assert(sizeof(double) == sizeof(RegVal));
    std::memcpy(&three_bits, &three, 8);
    std::memcpy(&two_bits, &two, 8);
    b.dataWord(addr, three_bits);
    b.dataWord(addr + 8, two_bits);
    b.lda(R(20), 0x14000);
    b.lda(R(11), 16);
    b.sll(R(20), R(11), R(20));
    b.ldt(F(1), 0, R(20));
    b.ldt(F(2), 8, R(20));
    b.addt(F(1), F(2), F(3));   // 5.0
    b.subt(F(1), F(2), F(4));   // 1.0
    b.mult(F(1), F(2), F(5));   // 6.0
    b.divt(F(1), F(2), F(6));   // 1.5
    b.sqrtt(F(5), F(8));        // sqrt(6)
    b.cpys(F(3), F(9));
    b.halt();
    Emulator emu = runToHalt(b.finish());
    EXPECT_DOUBLE_EQ(emu.readFpReg(3), 5.0);
    EXPECT_DOUBLE_EQ(emu.readFpReg(4), 1.0);
    EXPECT_DOUBLE_EQ(emu.readFpReg(5), 6.0);
    EXPECT_DOUBLE_EQ(emu.readFpReg(6), 1.5);
    EXPECT_NEAR(emu.readFpReg(8), 2.449489742783178, 1e-12);
    EXPECT_DOUBLE_EQ(emu.readFpReg(9), 5.0);
}

TEST(Emulator, BranchDirections)
{
    ProgramBuilder b("t");
    b.lda(R(1), 0);
    b.beq(R(1), "took");        // taken
    b.lda(R(2), 99);            // skipped
    b.label("took");
    b.lda(R(3), 1);
    b.bne(R(1), "nottaken");    // not taken
    b.lda(R(4), 2);
    b.label("nottaken");
    b.halt();
    Emulator emu = runToHalt(b.finish());
    EXPECT_EQ(emu.readIntReg(2), 0u);
    EXPECT_EQ(emu.readIntReg(3), 1u);
    EXPECT_EQ(emu.readIntReg(4), 2u);
}

TEST(Emulator, SignedBranches)
{
    ProgramBuilder b("t");
    b.lda(R(1), -1);
    b.blt(R(1), "a");
    b.lda(R(9), 1);     // skipped
    b.label("a");
    b.bgt(R(1), "b");   // not taken (-1 <= 0)
    b.lda(R(2), 5);
    b.label("b");
    b.lda(R(3), 0);
    b.bge(R(3), "c");   // taken (0 >= 0)
    b.lda(R(4), 9);     // skipped
    b.label("c");
    b.halt();
    Emulator emu = runToHalt(b.finish());
    EXPECT_EQ(emu.readIntReg(9), 0u);
    EXPECT_EQ(emu.readIntReg(2), 5u);
    EXPECT_EQ(emu.readIntReg(4), 0u);
}

TEST(Emulator, CallAndReturn)
{
    ProgramBuilder b("t");
    b.bsr(R(26), "func");
    b.lda(R(2), 2);             // executes after return
    b.halt();
    b.label("func");
    b.lda(R(1), 1);
    b.ret(R(26));
    Emulator emu = runToHalt(b.finish());
    EXPECT_EQ(emu.readIntReg(1), 1u);
    EXPECT_EQ(emu.readIntReg(2), 2u);
}

TEST(Emulator, IndirectJumpViaTable)
{
    ProgramBuilder b("t");
    const Addr table = Program::kDataBase;
    b.dataWordLabel(table, "target");
    b.lda(R(20), 0x14000);
    b.lda(R(11), 16);
    b.sll(R(20), R(11), R(20));
    b.ldq(R(21), 0, R(20));
    b.jmp(R(21));
    b.lda(R(1), 99);            // skipped
    b.label("target");
    b.lda(R(2), 42);
    b.halt();
    Emulator emu = runToHalt(b.finish());
    EXPECT_EQ(emu.readIntReg(1), 0u);
    EXPECT_EQ(emu.readIntReg(2), 42u);
}

TEST(Emulator, DeepRecursionSums)
{
    // f(n) = n + f(n-1), f(0) = 0, computed with explicit stack pushes.
    ProgramBuilder b("t");
    b.lda(R(10), 1);
    b.lda(R(29), 0x16000);
    b.lda(R(11), 16);
    b.sll(R(29), R(11), R(29));     // stack base 0x160000000
    b.lda(R(16), 100);              // n
    b.lda(R(7), 0);                 // accumulator
    b.bsr(R(26), "f");
    b.halt();
    b.label("f");
    b.beq(R(16), "base");
    b.addq(R(7), R(16), R(7));
    b.subq(R(16), R(10), R(16));
    b.lda(R(29), -16, R(29));
    b.stq(R(26), 0, R(29));
    b.bsr(R(26), "f");
    b.ldq(R(26), 0, R(29));
    b.lda(R(29), 16, R(29));
    b.label("base");
    b.ret(R(26));
    Emulator emu = runToHalt(b.finish(), 100000);
    EXPECT_EQ(emu.readIntReg(7), 5050u);
}

TEST(Emulator, ExecutedRecordsCarryMetadata)
{
    ProgramBuilder b("t");
    b.lda(R(1), 0);
    b.beq(R(1), "x");
    b.unop(1);
    b.label("x");
    b.halt();
    Program p = b.finish();
    Emulator emu(p);
    ExecutedInst i0 = emu.step();
    EXPECT_EQ(i0.seq, 0u);
    EXPECT_EQ(i0.pc, p.pcOf(0));
    EXPECT_FALSE(i0.taken);
    ExecutedInst i1 = emu.step();
    EXPECT_TRUE(i1.taken);
    EXPECT_EQ(i1.nextPc, p.pcOf(3));
    ExecutedInst i2 = emu.step();
    EXPECT_TRUE(i2.halted);
    EXPECT_TRUE(emu.halted());
}

TEST(OracleStream, DeliversInOrder)
{
    ProgramBuilder b("t");
    b.unop(4);
    b.halt();
    Program p = b.finish();
    OracleStream o(p);
    for (int i = 0; i < 5; i++) {
        EXPECT_FALSE(o.exhausted());
        EXPECT_EQ(o.next().seq, InstSeq(i));
    }
    EXPECT_TRUE(o.exhausted());
}

TEST(OracleStream, RewindReplaysBufferedRecords)
{
    ProgramBuilder b("t");
    b.lda(R(1), 1);
    b.lda(R(2), 2);
    b.lda(R(3), 3);
    b.halt();
    Program p = b.finish();
    OracleStream o(p);
    o.next();
    InstSeq second = o.next().seq;
    o.next();
    o.rewindTo(second);
    EXPECT_EQ(o.next().seq, second);
    EXPECT_EQ(o.next().seq, second + 1);
}

TEST(OracleStream, RetireTrimsBuffer)
{
    ProgramBuilder b("t");
    b.unop(10);
    b.halt();
    Program p = b.finish();
    OracleStream o(p);
    for (int i = 0; i < 6; i++)
        o.next();
    EXPECT_EQ(o.bufferedRecords(), 6u);
    o.retireBefore(4);
    EXPECT_EQ(o.bufferedRecords(), 2u);
    // Rewind is still possible within the unretired window.
    o.rewindTo(4);
    EXPECT_EQ(o.next().seq, 4u);
}

TEST(OracleStream, NextPcTracksCursor)
{
    ProgramBuilder b("t");
    b.unop(2);
    b.halt();
    Program p = b.finish();
    OracleStream o(p);
    EXPECT_EQ(o.nextPc(), p.pcOf(0));
    o.next();
    EXPECT_EQ(o.nextPc(), p.pcOf(1));
    o.rewindTo(0);
    EXPECT_EQ(o.nextPc(), p.pcOf(0));
}

namespace {

/** @p image's pages, in address order, against @p data stored word by
 *  word into a plain SparseMemory: the same pages, byte for byte. */
void
expectImageMatchesReplay(const std::vector<std::pair<Addr, RegVal>> &data,
                         const PageImage &image, const std::string &what)
{
    SparseMemory replay;
    std::set<Addr> pages;
    for (const auto &[addr, value] : data) {
        replay.write64(addr, value);
        pages.insert(addr >> PageImage::kPageShift);
        pages.insert((addr + 7) >> PageImage::kPageShift);
    }
    ASSERT_EQ(image.pageNos,
              std::vector<Addr>(pages.begin(), pages.end()))
        << what;
    ASSERT_EQ(image.pages.size(), image.pageNos.size()) << what;
    EXPECT_EQ(image.dataWords, data.size()) << what;
    for (std::size_t i = 0; i < image.pageNos.size(); i++) {
        ASSERT_EQ(image.slotOf.at(image.pageNos[i]), i) << what;
        Addr base = image.pageNos[i] << PageImage::kPageShift;
        for (Addr off = 0; off < PageImage::kPageBytes; off += 8) {
            RegVal built;
            std::memcpy(&built, image.pages[i]->data() + off, 8);
            ASSERT_EQ(built, replay.read64(base + off))
                << what << " at 0x" << std::hex << base + off;
        }
    }
}

} // namespace

TEST(PageImage, BuildMatchesAWordByWordReplayForEveryWorkload)
{
    for (const std::string &name : runner::workloadNames()) {
        Program p;
        std::string error;
        ASSERT_TRUE(runner::buildWorkload(name, &p, &error)) << error;
        expectImageMatchesReplay(p.data, *PageImage::build(p.data), name);
    }
}

TEST(PageImage, BuildLaysStraddlingAndRepeatedWordsOutAsStores)
{
    // A word straddling two pages, one repeated (the later value wins),
    // a misaligned one inside a page, a zero word that still makes its
    // page, and one far beyond the others' window.
    const std::vector<std::pair<Addr, RegVal>> data = {
        {0x10000, 0x1111111111111111ULL},
        {0x10ffc, 0xDEADBEEFCAFEF00DULL},
        {0x10008, 0x2222222222222222ULL},
        {0x10000, 0x3333333333333333ULL},
        {0x10ffa, 0x0102030405060708ULL},
        {0x12003, 0xA5A5A5A5A5A5A5A5ULL},
        {0x15000, 0},
        {0x40000000000ULL, 0x4444444444444444ULL},
        {0x10ff8, 0x5555555555555555ULL},
    };
    expectImageMatchesReplay(data, *PageImage::build(data), "hand-made");
    expectImageMatchesReplay({}, *PageImage::build({}), "empty");
}
