/**
 * @file
 * Unit tests for the 21264 core's building blocks: register renaming,
 * the scoreboard's cross-cluster skew, the collapsible issue queue, and
 * the execution-pipe pool.
 */

#include <gtest/gtest.h>

#include "common/random.hh"
#include "core/fu_pool.hh"
#include "core/issue_queue.hh"
#include "core/rename.hh"

using namespace simalpha;

TEST(Rename, InitialMappingIsIdentity)
{
    RenameUnit r(72, 72);
    EXPECT_EQ(r.lookup(intReg(5)), PhysReg(5));
    EXPECT_EQ(r.lookup(fpReg(3)), PhysReg(72 + 3));
    EXPECT_EQ(r.freeIntRegs(), 40);
    EXPECT_EQ(r.freeFpRegs(), 40);
}

TEST(Rename, AllocateChangesMapping)
{
    RenameUnit r(72, 72);
    PhysReg old_phys;
    PhysReg p = r.allocate(intReg(5), old_phys);
    EXPECT_NE(p, kNoPhys);
    EXPECT_EQ(old_phys, PhysReg(5));
    EXPECT_EQ(r.lookup(intReg(5)), p);
    EXPECT_EQ(r.freeIntRegs(), 39);
}

TEST(Rename, UndoRestoresMappingAndFreesReg)
{
    RenameUnit r(72, 72);
    PhysReg old_phys;
    PhysReg p = r.allocate(intReg(5), old_phys);
    r.undo(intReg(5), p, old_phys);
    EXPECT_EQ(r.lookup(intReg(5)), PhysReg(5));
    EXPECT_EQ(r.freeIntRegs(), 40);
}

TEST(Rename, ReleaseReturnsOldMapping)
{
    RenameUnit r(72, 72);
    PhysReg old_phys;
    r.allocate(intReg(5), old_phys);
    EXPECT_EQ(r.freeIntRegs(), 39);
    r.release(old_phys);
    EXPECT_EQ(r.freeIntRegs(), 40);
}

TEST(Rename, ExhaustionReturnsNoPhys)
{
    RenameUnit r(72, 72);
    PhysReg old_phys;
    for (int i = 0; i < 40; i++)
        EXPECT_NE(r.allocate(intReg(1), old_phys), kNoPhys);
    EXPECT_EQ(r.allocate(intReg(1), old_phys), kNoPhys);
    // FP side is independent.
    EXPECT_NE(r.allocate(fpReg(1), old_phys), kNoPhys);
}

TEST(Rename, RandomAllocUndoConservesRegisters)
{
    // Property: any interleaving of allocate/undo/release keeps the
    // total register count invariant.
    RenameUnit r(72, 72);
    Random rng(123);
    struct Alloc
    {
        RegIndex arch;
        PhysReg phys;
        PhysReg old;
    };
    std::vector<Alloc> live;
    int released = 0;
    for (int step = 0; step < 4000; step++) {
        int action = int(rng.below(3));
        if (action == 0 || live.empty()) {
            RegIndex arch = intReg(int(rng.below(30)));
            PhysReg old_phys;
            PhysReg p = r.allocate(arch, old_phys);
            if (p != kNoPhys)
                live.push_back({arch, p, old_phys});
        } else if (action == 1) {
            // Undo the youngest (squash semantics are LIFO).
            Alloc a = live.back();
            live.pop_back();
            // Only legal if no younger rename of the same arch reg —
            // guaranteed by LIFO undo order when we undo the youngest.
            if (r.lookup(a.arch) == a.phys) {
                r.undo(a.arch, a.phys, a.old);
            } else {
                live.push_back(a);
            }
        } else {
            // Retire the oldest: release its displaced mapping.
            Alloc a = live.front();
            live.erase(live.begin());
            r.release(a.old);
            released++;
        }
    }
    // Registers live in exactly one place: the free list accounts for
    // everything not mapped or in-flight.
    EXPECT_EQ(r.freeIntRegs(), 40 - int(live.size()));
}

TEST(Scoreboard, SameClusterSeesReadyOnTime)
{
    Scoreboard sb(16);
    sb.setPending(3);
    EXPECT_TRUE(sb.pending(3));
    sb.setReady(3, 100, 0);
    EXPECT_EQ(sb.readyAt(3, 0), 100u);
    EXPECT_EQ(sb.readyAt(3, 1), 101u);  // cross-cluster skew
}

TEST(Scoreboard, BroadcastHasNoSkew)
{
    Scoreboard sb(16);
    sb.setReady(4, 50, -1);
    EXPECT_EQ(sb.readyAt(4, 0), 50u);
    EXPECT_EQ(sb.readyAt(4, 1), 50u);
}

TEST(Scoreboard, PendingReadsNoCycle)
{
    Scoreboard sb(16);
    sb.setPending(2);
    EXPECT_EQ(sb.readyAt(2, 0), kNoCycle);
    sb.setReadyNow(2);
    EXPECT_EQ(sb.readyAt(2, 0), 0u);
}

namespace {

DynInst
makeInst(InstSeq seq)
{
    DynInst d;
    d.seq = seq;
    return d;
}

} // namespace

TEST(IssueQueue, CapacityAndCompaction)
{
    IssueQueue q(4, 1);
    std::vector<DynInst> pool;
    pool.reserve(8);
    for (int i = 0; i < 4; i++) {
        pool.push_back(makeInst(InstSeq(i)));
        q.insert(&pool.back());
    }
    EXPECT_TRUE(q.full());
    pool[0].issued = true;
    pool[0].issueCycle = 10;
    q.noteIssued(10);           // issue sites must schedule the removal
    q.compact(10);              // removal delay 1: not yet
    EXPECT_TRUE(q.full());
    EXPECT_EQ(q.nextRemoval(), 11u);
    q.compact(11);
    EXPECT_EQ(q.size(), 3);
}

TEST(IssueQueue, DelayedRemovalHoldsLonger)
{
    IssueQueue q(4, 2);
    DynInst d = makeInst(0);
    q.insert(&d);
    d.issued = true;
    d.issueCycle = 10;
    q.noteIssued(10);
    q.compact(11);
    EXPECT_EQ(q.size(), 1);     // still resident (sim-alpha approx)
    q.compact(12);
    EXPECT_EQ(q.size(), 0);
    EXPECT_EQ(q.nextRemoval(), kNoCycle);
}

TEST(IssueQueue, CompactIsGatedOnScheduledRemovals)
{
    // Without a noteIssued call nothing is due, so compact must skip
    // the scan entirely (the event-driven fast path's whole point).
    IssueQueue q(4, 1);
    DynInst d = makeInst(0);
    q.insert(&d);
    d.issued = true;
    d.issueCycle = 10;
    EXPECT_FALSE(q.compact(100));
    EXPECT_EQ(q.size(), 1);
    q.noteIssued(10);
    EXPECT_TRUE(q.compact(100));
    EXPECT_EQ(q.size(), 0);
}

TEST(IssueQueue, SquashRemovesSuffix)
{
    IssueQueue q(8, 1);
    std::vector<DynInst> pool;
    pool.reserve(6);
    for (int i = 0; i < 6; i++) {
        pool.push_back(makeInst(InstSeq(i)));
        q.insert(&pool.back());
    }
    q.squashFrom(3);
    EXPECT_EQ(q.size(), 3);
    for (DynInst *e : q.entries())
        EXPECT_LT(e->seq, 3u);
}

TEST(IssueQueue, ReinsertKeepsAgeOrderAndDeduplicates)
{
    IssueQueue q(8, 1);
    std::vector<DynInst> pool;
    pool.reserve(4);
    for (int i = 0; i < 4; i++)
        pool.push_back(makeInst(InstSeq(i * 10)));
    q.insert(&pool[0]);
    q.insert(&pool[2]);
    q.insert(&pool[3]);
    q.reinsert(&pool[1]);       // belongs between 0 and 2
    ASSERT_EQ(q.size(), 4);
    InstSeq prev = 0;
    for (DynInst *e : q.entries()) {
        EXPECT_GE(e->seq, prev);
        prev = e->seq;
    }
    q.reinsert(&pool[1]);       // duplicate: no effect
    EXPECT_EQ(q.size(), 4);
}

namespace {

/** Reserve the lowest-numbered free pipe of @p cluster that fits an
 *  op (fp ops ignore the cluster): the FU-mix question, answered
 *  through the fit table and pipe reservation the issue stage uses. */
bool
acquire(FuPool &fu, OpClass cls, int cluster, bool slotted_upper,
        bool slot_restrict, Cycle now)
{
    unsigned mask = fu.fitMask(cls, slotted_upper, slot_restrict) &
                    fu.freeMask(now);
    for (int p = 0; p < fu.numPipes(); p++) {
        if (!(mask >> p & 1u))
            continue;
        if (!fu.pipeIsFp(p) && fu.pipeCluster(p) != cluster)
            continue;
        fu.reservePipe(p, cls, now);
        return true;
    }
    return false;
}

} // namespace

TEST(FuPool, FourAluPipesPerCycle)
{
    FuPool fu(false);
    int granted = 0;
    for (int i = 0; i < 8; i++)
        if (acquire(fu, OpClass::IntAlu, i % 2, (i / 2) % 2, true, 0))
            granted++;
    EXPECT_EQ(granted, 4);
    // Next cycle they free up.
    EXPECT_TRUE(acquire(fu, OpClass::IntAlu, 0, true, true, 1));
}

TEST(FuPool, OnlyOneMultiplier)
{
    FuPool fu(false);
    EXPECT_TRUE(acquire(fu, OpClass::IntMul, 1, true, true, 0));
    EXPECT_FALSE(acquire(fu, OpClass::IntMul, 1, true, true, 0));
    EXPECT_FALSE(acquire(fu, OpClass::IntMul, 0, true, true, 0));
}

TEST(FuPool, MemoryUsesLowerPipes)
{
    FuPool fu(false);
    EXPECT_TRUE(acquire(fu, OpClass::IntLoad, 0, false, true, 0));
    EXPECT_TRUE(acquire(fu, OpClass::IntLoad, 1, false, true, 0));
    EXPECT_FALSE(acquire(fu, OpClass::IntLoad, 0, false, true, 0));
}

TEST(FuPool, FpDivideBlocksThePipe)
{
    FuPool fu(false);
    EXPECT_TRUE(acquire(fu, OpClass::FpDivD, 0, false, false, 0));
    // The divide occupies the add pipe for its full latency (15).
    EXPECT_FALSE(acquire(fu, OpClass::FpAdd, 0, false, false, 5));
    EXPECT_TRUE(acquire(fu, OpClass::FpAdd, 0, false, false, 15));
    // The multiply pipe is unaffected.
    EXPECT_TRUE(acquire(fu, OpClass::FpMul, 0, false, false, 5));
}

TEST(FuPool, WrongMixHalvesAluThroughput)
{
    FuPool fu(true);
    int granted = 0;
    for (int i = 0; i < 8; i++)
        if (acquire(fu, OpClass::IntAlu, i % 2, (i / 2) % 2, true, 0))
            granted++;
    EXPECT_EQ(granted, 2);      // only the two "adders" remain
    // But it has two multipliers.
    EXPECT_TRUE(acquire(fu, OpClass::IntMul, 0, true, true, 0));
    EXPECT_TRUE(acquire(fu, OpClass::IntMul, 1, true, true, 0));
}

TEST(FuPool, SlotRestrictionBindsAluToSubcluster)
{
    FuPool fu(false);
    // Upper-slotted ALU consumes the upper pipe of its cluster; a second
    // upper-slotted ALU in the same cluster must wait.
    EXPECT_TRUE(acquire(fu, OpClass::IntAlu, 0, true, true, 0));
    EXPECT_FALSE(acquire(fu, OpClass::IntAlu, 0, true, true, 0));
    // Without the restriction it may use the lower pipe.
    EXPECT_TRUE(acquire(fu, OpClass::IntAlu, 0, true, false, 0));
}

TEST(FuPool, PerPipeInterface)
{
    FuPool fu(false);
    EXPECT_EQ(fu.numPipes(), 6);
    int fp_pipes = 0;
    for (int p = 0; p < fu.numPipes(); p++)
        if (fu.pipeIsFp(p))
            fp_pipes++;
    EXPECT_EQ(fp_pipes, 2);
    // Reserve a pipe; it rejects a second op the same cycle.
    for (int p = 0; p < fu.numPipes(); p++) {
        if (fu.pipeIsFp(p))
            continue;
        if (fu.pipeCanIssue(p, OpClass::IntAlu, true, true, 5)) {
            fu.reservePipe(p, OpClass::IntAlu, 5);
            EXPECT_FALSE(fu.pipeCanIssue(p, OpClass::IntAlu, true,
                                         true, 5));
            EXPECT_TRUE(fu.pipeCanIssue(p, OpClass::IntAlu, true,
                                        true, 6));
            break;
        }
    }
}

TEST(FuPool, FitMaskAgreesWithPipeCanIssue)
{
    for (bool wrong_mix : {false, true}) {
        FuPool fu(wrong_mix);
        for (int c = 0; c <= int(OpClass::Halt); c++)
            for (bool upper : {false, true})
                for (bool restrict_slot : {false, true})
                    for (int p = 0; p < fu.numPipes(); p++)
                        EXPECT_EQ(
                            bool(fu.fitMask(OpClass(c), upper,
                                            restrict_slot) >> p & 1u),
                            fu.pipeCanIssue(p, OpClass(c), upper,
                                            restrict_slot, 0))
                            << "class " << c << " pipe " << p;
        EXPECT_EQ(fu.freeMask(0), 0x3f);
        fu.reservePipe(4, OpClass::FpDivD, 0);
        EXPECT_EQ(fu.freeMask(0), 0x2f);
        EXPECT_EQ(fu.freeMask(14), 0x2f);
        EXPECT_EQ(fu.freeMask(15), 0x3f);
    }
}
