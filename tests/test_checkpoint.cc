/**
 * @file
 * Tests for the emulator checkpoint/restore facility: restore
 * semantics, and checkpoints as deltas over the program's data image.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

#include "checkpoint/checkpoint.hh"
#include "inject/inject.hh"
#include "isa/assembler.hh"
#include "isa/emulator.hh"
#include "runner/campaign.hh"
#include "validate/machines.hh"

using namespace simalpha;

namespace {

Program
counterProgram()
{
    ProgramBuilder b("ckpt");
    b.lda(R(10), 1);
    b.lda(R(9), 1000);
    b.lda(R(20), 0x14000);
    b.lda(R(11), 16);
    b.sll(R(20), R(11), R(20));
    b.label("top");
    b.addq(R(1), R(10), R(1));
    b.stq(R(1), 0, R(20));
    b.subq(R(9), R(10), R(9));
    b.bne(R(9), "top");
    b.halt();
    return b.finish();
}

/** Two pages of nonzero image words, of which the loop clears every
 *  other word of the first page to zero and overwrites the rest with
 *  new values, plus a store to a page outside the image. */
Program
rewriterProgram()
{
    ProgramBuilder b("rewriter");
    for (int i = 0; i < 1024; i++)
        b.dataWord(Program::kDataBase + 8 * Addr(i),
                   RegVal(i + 1) * 0x9E3779B97F4A7C15ULL);
    b.lda(R(10), 1);
    b.lda(R(11), 16);
    b.lda(R(20), 0x14000);
    b.sll(R(20), R(11), R(20));     // the data base
    b.lda(R(29), 0x16000);
    b.sll(R(29), R(11), R(29));     // the stack, outside the image
    b.lda(R(9), 256);
    b.lda(R(1), 7);
    b.label("top");
    b.stq(R(31), 0, R(20));         // clear an image word
    b.addq(R(1), R(10), R(1));
    b.stq(R(1), 8, R(20));          // overwrite the next one
    b.stq(R(1), 0, R(29));
    b.lda(R(20), 16, R(20));
    b.subq(R(9), R(10), R(9));
    b.bne(R(9), "top");
    b.halt();
    return b.finish();
}

Program
workload(const std::string &name)
{
    Program p;
    std::string error;
    EXPECT_TRUE(runner::buildWorkload(name, &p, &error)) << error;
    return p;
}

} // namespace

TEST(Checkpoint, RoundTripPreservesEverything)
{
    Program p = counterProgram();
    Emulator emu(p);
    for (int i = 0; i < 500; i++)
        emu.step();

    Checkpoint ckpt = emu.checkpoint();
    EXPECT_EQ(ckpt.pc, emu.pc());
    EXPECT_EQ(ckpt.seq, emu.instsExecuted());

    // Run ahead, then rewind.
    std::vector<ExecutedInst> ahead;
    for (int i = 0; i < 200; i++)
        ahead.push_back(emu.step());

    Emulator fresh(p);
    fresh.restore(ckpt);
    EXPECT_EQ(fresh.pc(), ckpt.pc);
    for (const ExecutedInst &expect : ahead) {
        ExecutedInst got = fresh.step();
        ASSERT_EQ(got.pc, expect.pc);
        ASSERT_EQ(got.nextPc, expect.nextPc);
        ASSERT_EQ(got.effAddr, expect.effAddr);
    }
}

TEST(Checkpoint, RestoreOntoSameEmulatorRewinds)
{
    Program p = counterProgram();
    Emulator emu(p);
    for (int i = 0; i < 100; i++)
        emu.step();
    Checkpoint ckpt = emu.checkpoint();
    RegVal r1_at_ckpt = emu.readIntReg(1);

    for (int i = 0; i < 300; i++)
        emu.step();
    EXPECT_NE(emu.readIntReg(1), r1_at_ckpt);

    emu.restore(ckpt);
    EXPECT_EQ(emu.readIntReg(1), r1_at_ckpt);
    EXPECT_EQ(emu.instsExecuted(), ckpt.seq);
}

TEST(Checkpoint, CapturesDirtyMemory)
{
    Program p = counterProgram();
    Emulator emu(p);
    while (!emu.halted())
        emu.step();
    Checkpoint ckpt = emu.checkpoint();

    Emulator fresh(p);
    fresh.restore(ckpt);
    EXPECT_EQ(fresh.memory().read64(0x140000000ULL), 1000u);
    EXPECT_TRUE(fresh.halted());
}

TEST(Checkpoint, InitialCheckpointIsProgramStart)
{
    Program p = counterProgram();
    Emulator emu(p);
    Checkpoint ckpt = emu.checkpoint();
    EXPECT_EQ(ckpt.pc, p.entryPc);
    EXPECT_EQ(ckpt.seq, 0u);
    EXPECT_FALSE(ckpt.halted);
    // Restoring it onto a fresh emulator starts the program over.
    Emulator fresh(p);
    fresh.restore(ckpt);
    ExecutedInst first = fresh.step();
    EXPECT_EQ(first.pc, p.entryPc);
}

TEST(CheckpointDelta, RestoreRebuildsImagePlusDeltaOnFreshAndUsedEmulators)
{
    Program p = rewriterProgram();
    Emulator straight(p);
    for (int i = 0; i < 900; i++)
        straight.step();
    Checkpoint mid = straight.checkpoint();

    // Cleared image words are recorded as zeros and overwritten ones
    // with their values, in address order; untouched words are not.
    ASSERT_FALSE(mid.memory.empty());
    EXPECT_TRUE(std::is_sorted(mid.memory.begin(), mid.memory.end()));
    EXPECT_TRUE(std::any_of(mid.memory.begin(), mid.memory.end(),
                            [](const auto &w) { return w.second == 0; }));
    EXPECT_LT(mid.memory.size(), 1024u);

    Emulator fresh(p);
    fresh.restore(mid);
    // Running past the checkpoint dirties words it does not list; the
    // restore must drop them.
    Emulator used(p);
    used.run(1500);
    used.restore(mid);
    EXPECT_EQ(fresh.checkpoint().memory, mid.memory);
    EXPECT_EQ(used.checkpoint().memory, mid.memory);

    while (!straight.halted()) {
        ExecutedInst want = straight.step();
        for (Emulator *emu : {&fresh, &used}) {
            ExecutedInst got = emu->step();
            ASSERT_EQ(got.pc, want.pc);
            ASSERT_EQ(got.nextPc, want.nextPc);
            ASSERT_EQ(got.effAddr, want.effAddr);
        }
    }
    std::vector<std::pair<Addr, RegVal>> words =
        straight.memory().exportWords();
    EXPECT_TRUE(std::is_sorted(words.begin(), words.end()));
    for (Emulator *emu : {&fresh, &used}) {
        EXPECT_TRUE(emu->halted());
        EXPECT_EQ(emu->memory().exportWords(), words);
        EXPECT_EQ(emu->checkpoint().memory,
                  straight.checkpoint().memory);
    }
}

TEST(CheckpointDelta, FreshEmulatorCheckpointHoldsNoMemory)
{
    Program p = rewriterProgram();
    Emulator emu(p);
    EXPECT_TRUE(emu.checkpoint().memory.empty());
    // The full state still holds every image word.
    EXPECT_EQ(emu.fullState().memory.size(), 1024u);
    EXPECT_EQ(emu.memory().pagesTouched(), 0u);
}

TEST(CheckpointDelta, ConcurrentFirstUseBuildsOneSharedImage)
{
    // Emulators of one program built on several threads at once share
    // a single image, and each one's writes stay its own.
    Program p = rewriterProgram();
    Checkpoint whole;
    {
        Emulator emu(p);
        while (!emu.halted())
            emu.step();
        whole = emu.checkpoint();
    }
    Program fresh = p;      // a copy starts with no image
    std::vector<std::shared_ptr<const PageImage>> images(4);
    std::vector<Checkpoint> ends(images.size());
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < images.size(); t++)
        threads.emplace_back([&, t] {
            Emulator emu(fresh);
            emu.run(100000);
            ends[t] = emu.checkpoint();
            images[t] = fresh.dataImage();
        });
    for (std::thread &t : threads)
        t.join();
    for (std::size_t t = 0; t < images.size(); t++) {
        EXPECT_EQ(images[t], images[0]);
        EXPECT_EQ(ends[t].memory, whole.memory);
        EXPECT_EQ(ends[t].regs, whole.regs);
    }
}

TEST(CheckpointDelta, MidRunMesaCheckpointHoldsNoWords)
{
    // mesa reads a large initial image and writes no memory, so its
    // checkpoints are registers alone.
    Program p = workload("mesa");
    checkpoint::FastForwardInfo info = checkpoint::fastForward(p, 0);
    ASSERT_GT(info.totalInsts, 1000u);
    Emulator emu(p);
    emu.run(info.totalInsts / 2);
    Checkpoint mid = emu.checkpoint();
    EXPECT_EQ(mid.seq, info.totalInsts / 2);
    EXPECT_TRUE(mid.memory.empty());
    EXPECT_EQ(emu.memory().pagesTouched(), 0u);
}

TEST(CheckpointDelta, ArchitecturalStateDigestIsUnchanged)
{
    // Stores hold vgold| entries whose digests hash every nonzero
    // word of architecturalState(); checkpoints becoming deltas must
    // not move those bytes. The values were computed before the change.
    struct Case
    {
        const char *machine;
        const char *workload;
        std::uint64_t maxInsts;
        std::uint64_t digest;
    };
    for (const Case &c : {
             Case{"sim-outorder", "art", 20000, 0xf93a1aca29434606ULL},
             Case{"sim-alpha", "C-Ca", 0, 0xed054e413fcebe58ULL},
         }) {
        Program p = workload(c.workload);
        auto machine = validate::makeMachine(c.machine);
        ASSERT_TRUE(machine) << c.machine;
        machine->run(p, c.maxInsts);
        Checkpoint state;
        ASSERT_TRUE(machine->architecturalState(&state));
        EXPECT_EQ(inject::archDigest(state), c.digest)
            << c.machine << " " << c.workload;
    }
}
