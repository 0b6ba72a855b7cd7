/**
 * @file
 * Program::releaseData: a program many cells share keeps its data page
 * image and frees the (address, value) word list. The image must be
 * the one a fresh build makes, an emulator over the released program
 * must step exactly as one over a fresh build, and nothing may read
 * the words that are gone: an appended word, a copy asking for an
 * image of its own and checkpoint::programHash all fail sim_assert.
 */

#include <gtest/gtest.h>

#include "checkpoint/checkpoint.hh"
#include "common/error.hh"
#include "isa/emulator.hh"
#include "runner/campaign.hh"

using namespace simalpha;

namespace {

/** art: a Table-3 program with a large data image that it writes. */
Program
art()
{
    Program p;
    std::string error;
    EXPECT_TRUE(runner::buildWorkload("art", &p, &error)) << error;
    return p;
}

Program
releasedArt()
{
    Program p = art();
    p.releaseData();
    EXPECT_TRUE(p.dataReleased());
    EXPECT_TRUE(p.data.empty());
    return p;
}

} // namespace

TEST(ReleasedProgram, ImagePagesEqualAFreshBuild)
{
    const Program fresh = art();
    ASSERT_FALSE(fresh.data.empty());
    const Program released = releasedArt();
    std::shared_ptr<const PageImage> a = fresh.dataImage();
    std::shared_ptr<const PageImage> b = released.dataImage();
    EXPECT_EQ(b->dataWords, fresh.data.size());
    ASSERT_EQ(a->pageNos, b->pageNos);
    ASSERT_EQ(a->pages.size(), b->pages.size());
    for (std::size_t i = 0; i < a->pages.size(); i++)
        EXPECT_EQ(*a->pages[i], *b->pages[i]) << "page " << a->pageNos[i];
    // The release keeps the one image: asking again hands back the same.
    EXPECT_EQ(released.dataImage(), b);
}

TEST(ReleasedProgram, EmulatorStepsLikeAFreshBuild)
{
    const Program fresh = art();
    const Program released = releasedArt();
    Emulator a(fresh), b(released);
    for (int i = 0; i < 200000 && !a.halted(); i++) {
        ExecutedInst x = a.step();
        ExecutedInst y = b.step();
        ASSERT_EQ(x.pc, y.pc) << "step " << i;
        ASSERT_EQ(x.nextPc, y.nextPc) << "step " << i;
        ASSERT_EQ(x.effAddr, y.effAddr) << "step " << i;
        ASSERT_EQ(x.taken, y.taken) << "step " << i;
        ASSERT_EQ(x.halted, y.halted) << "step " << i;
    }
    EXPECT_EQ(a.halted(), b.halted());
    Checkpoint ca = a.checkpoint(), cb = b.checkpoint();
    EXPECT_EQ(ca.regs, cb.regs);
    EXPECT_EQ(ca.pc, cb.pc);
    EXPECT_EQ(ca.seq, cb.seq);
    EXPECT_FALSE(ca.memory.empty());
    EXPECT_EQ(ca.memory, cb.memory);
    EXPECT_EQ(a.memory().exportWords(), b.memory().exportWords());
}

TEST(ReleasedProgram, AppendedWordFailsTheImageCheck)
{
    Program p = releasedArt();
    p.data.emplace_back(Program::kDataBase, 1);
    EXPECT_THROW(p.dataImage(), InvariantError);
    EXPECT_THROW(Emulator{p}, InvariantError);
}

TEST(ReleasedProgram, CopyCannotBuildAnImageOfItsOwn)
{
    const Program p = releasedArt();
    const Program copy = p;     // a copy starts with no image
    EXPECT_TRUE(copy.dataReleased());
    EXPECT_THROW(copy.dataImage(), InvariantError);
    EXPECT_THROW(Emulator{copy}, InvariantError);
    // The original still has its image.
    EXPECT_NE(p.dataImage(), nullptr);
}

TEST(ReleasedProgram, ProgramHashRefusesReleasedWords)
{
    const Program fresh = art();
    EXPECT_NE(checkpoint::programHash(fresh), 0u);
    const Program released = releasedArt();
    EXPECT_THROW(checkpoint::programHash(released), InvariantError);
}
