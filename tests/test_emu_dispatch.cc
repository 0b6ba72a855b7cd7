/**
 * @file
 * Predecoded-dispatch equivalence (`ctest -L emu`): the batch run()
 * path (computed goto on GNU compilers) against the one-step-at-a-time
 * step() path and the retained SIMALPHA_SLOWPATH=1 switch interpreter.
 * Every comparison is full-architectural-state byte identity via
 * checkpoints: registers, PC, retired count, halted flag, and every
 * touched memory word. Run under -DSIMALPHA_SANITIZE=address and
 * =undefined as well — the predecoded loop indexes the extended
 * register file and the decoded text image with raw slots.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "isa/assembler.hh"
#include "isa/emulator.hh"
#include "runner/campaign.hh"

using namespace simalpha;
using simalpha::runner::Cell;
using simalpha::runner::CampaignSpec;

namespace {

/** Scoped SIMALPHA_SLOWPATH=1 (the emulator reads it at construction). */
struct ScopedSlowpath
{
    ScopedSlowpath() { ::setenv("SIMALPHA_SLOWPATH", "1", 1); }
    ~ScopedSlowpath() { ::unsetenv("SIMALPHA_SLOWPATH"); }
};

/** Full architectural state equality, member by member so a failure
 *  names the component that diverged. */
void
expectSameState(const Checkpoint &a, const Checkpoint &b,
                const std::string &what)
{
    EXPECT_EQ(a.regs, b.regs) << what << ": register file diverged";
    EXPECT_EQ(a.pc, b.pc) << what;
    EXPECT_EQ(a.seq, b.seq) << what;
    EXPECT_EQ(a.halted, b.halted) << what;
    EXPECT_EQ(a.memory, b.memory) << what << ": memory diverged";
}

/** A branchy program exercising every control-flow shape the decoder
 *  resolves: conditional branches both ways, bsr/ret, an indirect
 *  jump through a data table, recursion with stack traffic. */
Program
branchyProgram()
{
    ProgramBuilder b("branchy");
    b.lda(R(10), 1);
    b.lda(R(29), 0x16000);
    b.lda(R(11), 16);
    b.sll(R(29), R(11), R(29));
    b.lda(R(16), 40);               // n
    b.lda(R(7), 0);                 // accumulator
    b.bsr(R(26), "f");
    b.lda(R(1), 0);
    b.beq(R(1), "skip");
    b.lda(R(2), 99);                // skipped
    b.label("skip");
    b.bne(R(1), "nottaken");        // not taken
    b.lda(R(3), 3);
    b.label("nottaken");
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
    return b.finish();
}

/** Run to halt via repeated step() calls; cap guards infinite loops. */
Checkpoint
runViaStep(const Program &p, std::uint64_t cap = 1000000)
{
    Emulator emu(p);
    std::uint64_t n = 0;
    while (!emu.halted() && n++ < cap)
        emu.step();
    EXPECT_TRUE(emu.halted()) << p.name << " did not halt";
    return emu.checkpoint();
}

/** Run to halt via the batch dispatcher; cap guards infinite loops. */
Checkpoint
runViaBatch(const Program &p, std::uint64_t cap = 1000000)
{
    Emulator emu(p);
    std::uint64_t n = 0;
    while (!emu.halted() && n < cap) {
        std::uint64_t ran = emu.run(cap - n);
        if (!ran)
            break;
        n += ran;
    }
    EXPECT_TRUE(emu.halted()) << p.name << " did not halt";
    return emu.checkpoint();
}

/** The unique workloads of the capped Table-3 campaign — the same
 *  real programs the perf harness times. */
std::vector<Program>
table3Workloads()
{
    CampaignSpec t3 = runner::table3Campaign();
    std::vector<std::string> names;
    for (const Cell &c : t3.cells)
        if (std::find(names.begin(), names.end(), c.workload) ==
            names.end())
            names.push_back(c.workload);
    std::vector<Program> progs;
    for (const std::string &n : names) {
        Program p;
        std::string error;
        EXPECT_TRUE(runner::buildWorkload(n, &p, &error)) << error;
        progs.push_back(p);
    }
    return progs;
}

} // namespace

TEST(EmuDispatch, DecodedImageResolvesTargetsAndAgreesWithDecodeOne)
{
    Program p = branchyProgram();
    Emulator emu(p);
    const std::vector<DecodedInst> &dec = emu.decodedText();
    ASSERT_EQ(dec.size(), p.text.size());
    bool saw_transfer = false;
    for (std::size_t i = 0; i < dec.size(); i++) {
        EXPECT_EQ(dec[i], Emulator::decodeOne(p.text[i]))
            << "predecoded image disagrees with a fresh decode at "
            << i;
        if (dec[i].target >= 0) {
            saw_transfer = true;
            EXPECT_EQ(dec[i].targetPc,
                      p.pcOf(std::size_t(dec[i].target)))
                << "precomputed taken-branch PC wrong at " << i;
        } else {
            EXPECT_EQ(dec[i].targetPc, 0u);
        }
    }
    EXPECT_TRUE(saw_transfer);
}

TEST(EmuDispatch, BatchRunMatchesStepByteIdentically)
{
    Program p = branchyProgram();
    Checkpoint stepped = runViaStep(p);
    Checkpoint batched = runViaBatch(p);
    expectSameState(stepped, batched, p.name);
}

TEST(EmuDispatch, BatchRunMatchesStepOnRealWorkloads)
{
    constexpr std::uint64_t kCap = 30000;
    for (const Program &p : table3Workloads()) {
        Emulator a(p), b(p);
        std::uint64_t n = 0;
        while (!a.halted() && n++ < kCap)
            a.step();
        std::uint64_t m = 0;
        while (!b.halted() && m < kCap) {
            std::uint64_t ran = b.run(kCap - m);
            if (!ran)
                break;
            m += ran;
        }
        EXPECT_EQ(n > kCap ? kCap : n, m) << p.name;
        expectSameState(a.checkpoint(), b.checkpoint(), p.name);
    }
}

TEST(EmuDispatch, SlowpathSwitchMatchesFastpathByteIdentically)
{
    // The slowpath also asserts per instruction that the predecoded
    // image agrees with a fresh decode, so merely completing under
    // SIMALPHA_SLOWPATH=1 is itself a decode-equivalence check.
    std::vector<Program> progs = table3Workloads();
    progs.push_back(branchyProgram());
    constexpr std::uint64_t kCap = 30000;
    for (const Program &p : progs) {
        Checkpoint fast, slow;
        {
            Emulator emu(p);
            std::uint64_t n = 0;
            while (!emu.halted() && n < kCap) {
                std::uint64_t ran = emu.run(kCap - n);
                if (!ran)
                    break;
                n += ran;
            }
            fast = emu.checkpoint();
        }
        {
            ScopedSlowpath env;
            Emulator emu(p);
            std::uint64_t n = 0;
            while (!emu.halted() && n < kCap) {
                std::uint64_t ran = emu.run(kCap - n);
                if (!ran)
                    break;
                n += ran;
            }
            slow = emu.checkpoint();
        }
        expectSameState(fast, slow, p.name);
    }
}

TEST(EmuDispatch, PartialBatchesComposeWithSteps)
{
    Program p = branchyProgram();
    Checkpoint whole = runViaStep(p);

    // Interleave small batches with single steps; the final state and
    // every intermediate retired-count must match a pure-step run.
    Emulator emu(p);
    std::uint64_t done = 0;
    std::uint64_t ran = emu.run(7);
    EXPECT_EQ(ran, 7u);
    done += ran;
    EXPECT_EQ(emu.instsExecuted(), done);
    emu.step();
    done++;
    ran = emu.run(3);
    EXPECT_EQ(ran, 3u);
    done += ran;
    EXPECT_EQ(emu.instsExecuted(), done);
    while (!emu.halted())
        done += emu.run(1000);
    EXPECT_EQ(emu.instsExecuted(), done);
    expectSameState(whole, emu.checkpoint(), p.name);
}

TEST(EmuDispatch, BatchStopsExactlyAtHaltAndRunsNoFurther)
{
    ProgramBuilder b("halter");
    b.unop(5);
    b.halt();
    Program p = b.finish();
    Emulator emu(p);
    std::uint64_t ran = emu.run(1000000);
    EXPECT_EQ(ran, 6u);         // five unops plus the halt retire
    EXPECT_TRUE(emu.halted());
    EXPECT_EQ(emu.run(1000000), 0u);
    EXPECT_EQ(emu.instsExecuted(), 6u);
}

TEST(EmuDispatch, RestoreMidRunThenBatchContinuesIdentically)
{
    Program p = branchyProgram();
    Checkpoint whole = runViaStep(p);

    Emulator first(p);
    first.run(25);
    Checkpoint mid = first.checkpoint();

    Emulator resumed(p);
    resumed.run(3);             // dirty some state the restore must undo
    resumed.restore(mid);
    EXPECT_EQ(resumed.instsExecuted(), mid.seq);
    while (!resumed.halted())
        if (!resumed.run(1000000))
            break;
    expectSameState(whole, resumed.checkpoint(), p.name);
}

TEST(EmuDispatch, FlipRegisterBitFoldsIndexAndBitIntoRange)
{
    Program p = branchyProgram();
    Emulator emu(p);
    // Register 67 folds to 3, bit 69 folds to 5 — the extended-file
    // slots past the architectural 64 are never reachable.
    emu.flipRegisterBit(64 + 3, 64 + 5);
    Checkpoint c = emu.checkpoint();
    EXPECT_EQ(c.regs[3], RegVal(1) << 5);
    for (std::size_t i = 0; i < c.regs.size(); i++)
        if (i != 3)
            EXPECT_EQ(c.regs[i], 0u) << "stray flip at " << i;
}

TEST(EmuDispatch, MemoryPageCacheSurvivesThrashAndStraddles)
{
    SparseMemory m;
    // Alternate two far-apart pages so the one-entry page cache
    // misses every access, then straddle a boundary misaligned.
    for (int i = 0; i < 100; i++) {
        m.write64(0x1000 + 8 * Addr(i % 4), RegVal(i));
        m.write64(0x200000 + 8 * Addr(i % 4), RegVal(1000 + i));
        EXPECT_EQ(m.read64(0x1000 + 8 * Addr(i % 4)), RegVal(i));
        EXPECT_EQ(m.read64(0x200000 + 8 * Addr(i % 4)),
                  RegVal(1000 + i));
    }
    m.write64(0x1FFD, 0xA1B2C3D4E5F60718ULL);   // misaligned straddle
    EXPECT_EQ(m.read64(0x1FFD), 0xA1B2C3D4E5F60718ULL);
    m.clear();
    EXPECT_EQ(m.read64(0x1FFD), 0u);
    EXPECT_EQ(m.pagesTouched(), 0u);
}

TEST(DecodeTable, EmulatorsOfOneProgramShareOneTableAndCopiesBuildTheirOwn)
{
    Program p = branchyProgram();
    Emulator a(p);
    Emulator b(p);
    EXPECT_EQ(&a.decodedText(), &b.decodedText());
    EXPECT_EQ(&a.decodedText(), &p.decoded());

    Program copy = p;
    Emulator c(copy);
    EXPECT_NE(&c.decodedText(), &a.decodedText());
    EXPECT_EQ(c.decodedText(), a.decodedText());
}

TEST(DecodeTable, ConcurrentFirstUseBuildsOneSharedTable)
{
    // Emulators of one program built on several threads at once, with
    // no table yet, all read the one table the first of them built.
    Program p = branchyProgram();
    Program fresh = p;      // a copy starts with no table
    std::vector<const std::vector<DecodedInst> *> tables(4);
    std::vector<Checkpoint> ends(tables.size());
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < tables.size(); t++)
        threads.emplace_back([&, t] {
            Emulator emu(fresh);
            emu.run(100000);
            ends[t] = emu.checkpoint();
            tables[t] = &emu.decodedText();
        });
    for (std::thread &t : threads)
        t.join();
    Emulator ref(p);
    ref.run(100000);
    for (std::size_t t = 0; t < tables.size(); t++) {
        EXPECT_EQ(tables[t], &fresh.decoded());
        EXPECT_EQ(ends[t].regs, ref.checkpoint().regs);
    }
    EXPECT_EQ(fresh.decoded(), p.decoded());
}
