/**
 * @file
 * Unit tests for the 21264 core's building blocks: register renaming,
 * the scoreboard's cross-cluster skew, the collapsible issue queue, the
 * execution-pipe pool, and the ready wheel behind both cores' issue
 * selects.
 */

#include <gtest/gtest.h>

#include <initializer_list>

#include "common/random.hh"
#include "core/fu_pool.hh"
#include "core/issue_queue.hh"
#include "core/rename.hh"
#include "core/slot_set.hh"

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

// ---------------------------------------------------------------------
// ReadyWheel
// ---------------------------------------------------------------------

namespace {

SlotSet
setOf(std::initializer_list<std::size_t> slots)
{
    SlotSet set;
    for (std::size_t s : slots)
        set.set(s);
    return set;
}

/** Ring slots as a core sees them: the seq each holds, and whether
 *  that entry has issued. A heap item is live while both match. */
struct Slots
{
    InstSeq seq[SlotSet::kMaxSlots] = {};
    bool issued[SlotSet::kMaxSlots] = {};

    auto
    live() const
    {
        return [this](std::size_t slot, InstSeq s) {
            return seq[slot] == s && !issued[slot];
        };
    }
};

/** Slot s, holding seq s, becomes ready at now + kOffsets[s]. */
constexpr Cycle kOffsets[] = {0, 1, 2, 14, 15, 16, 17, 31, 40};
constexpr std::size_t kEntries = std::size(kOffsets);

SlotSet
readyBy(Cycle now, Cycle c)
{
    SlotSet want;
    for (std::size_t s = 0; s < kEntries; s++)
        if (now + kOffsets[s] <= c)
            want.set(s);
    return want;
}

} // namespace

TEST(ReadyWheel, PlacesByCycleInReadySetBucketOrHeap)
{
    Slots ring;
    ReadyWheel<1> w;
    const Cycle now = 1003;
    w.clear(now);
    for (std::size_t s = 0; s < kEntries; s++) {
        ring.seq[s] = s;
        std::uint8_t b = w.place(s, 0, now + kOffsets[s], now, s);
        if (kOffsets[s] == 0 || kOffsets[s] >= 16)
            EXPECT_EQ(b, kNoBucket) << s;
        else
            EXPECT_EQ(b, (now + kOffsets[s]) % 16) << s;
    }
    EXPECT_TRUE(w.ready(0) == setOf({0}));
}

TEST(ReadyWheel, EntriesBecomeReadyAtTheirCycleAcrossOneCycleDrains)
{
    Slots ring;
    ReadyWheel<1> w;
    const Cycle now = 1003;
    w.clear(now);
    for (std::size_t s = 0; s < kEntries; s++) {
        ring.seq[s] = s;
        w.place(s, 0, now + kOffsets[s], now, s);
    }
    for (Cycle c = now; c <= now + 45; c++) {
        w.drain(c, ring.live());
        EXPECT_TRUE(w.ready(0) == readyBy(now, c)) << "cycle " << c;
    }
}

TEST(ReadyWheel, EntriesBecomeReadyAtTheirCycleAcrossLongDrains)
{
    Slots ring;
    ReadyWheel<1> w;
    const Cycle now = 1003;
    w.clear(now);
    for (std::size_t s = 0; s < kEntries; s++) {
        ring.seq[s] = s;
        w.place(s, 0, now + kOffsets[s], now, s);
    }
    // The first jump, of 17, drains every bucket once, the one 15
    // cycles on too.
    for (Cycle c : {now + 17, now + 30, now + 39, now + 40}) {
        w.drain(c, ring.live());
        EXPECT_TRUE(w.ready(0) == readyBy(now, c)) << "cycle " << c;
    }
    // After the jumps the buckets start at the new cycle.
    const Cycle later = now + 40;
    SlotSet want = readyBy(now, later);
    for (std::size_t s = 20; s < 23; s++)
        ring.seq[s] = s;
    w.place(20, 0, later + 1, later, 20);
    w.place(21, 0, later + 15, later, 21);
    w.place(22, 0, later + 16, later, 22);
    for (auto [c, s] : {std::pair{later + 14, 20}, std::pair{later + 15, 21},
                        std::pair{later + 60, 22}}) {
        w.drain(c, ring.live());
        want.set(std::size_t(s));
        EXPECT_TRUE(w.ready(0) == want) << "cycle " << c;
    }
}

TEST(ReadyWheel, StaleHeapItemsAreSkippedByDrainAndWake)
{
    // Slot 7's entry left (the slot holds another seq) and slot 8's
    // issued before their cycles came; slot 9's is still waiting.
    Slots ring;
    auto fill = [&](ReadyWheel<1> &w) {
        w.clear(0);
        for (std::size_t s : {7, 8, 9}) {
            ring.seq[s] = 10 * s;
            w.place(s, 0, 20 + s, 0, 10 * s);
        }
        ring.seq[7] = 71;
        ring.issued[8] = true;
    };
    ReadyWheel<1> drained;
    fill(drained);
    drained.drain(28, ring.live());
    EXPECT_FALSE(drained.ready(0).any());
    drained.drain(29, ring.live());
    EXPECT_TRUE(drained.ready(0) == setOf({9}));

    ReadyWheel<1> woken;
    fill(woken);
    EXPECT_EQ(woken.wakeAfter(0, ring.live()), Cycle(29));
    ring.issued[9] = true;
    EXPECT_EQ(woken.wakeAfter(0, ring.live()), kNoCycle);
}

TEST(ReadyWheel, WakeAfterNamesTheNextReadyCycle)
{
    Slots ring;
    ReadyWheel<2> w;
    Cycle now = 50;
    w.clear(now);
    EXPECT_EQ(w.wakeAfter(now, ring.live()), kNoCycle);

    // A ready bit on either lane means a select next cycle.
    ring.seq[1] = 1;
    w.place(1, 1, now, now, 1);
    EXPECT_EQ(w.wakeAfter(now, ring.live()), now + 1);
    w.unplace(1, 1, kNoBucket);
    EXPECT_EQ(w.wakeAfter(now, ring.live()), kNoCycle);

    // Else the earliest non-empty bucket or live heap item.
    for (std::size_t s : {2, 3, 4})
        ring.seq[s] = s;
    std::uint8_t b2 = w.place(2, 0, now + 5, now, 2);
    std::uint8_t b3 = w.place(3, 1, now + 9, now, 3);
    w.place(4, 0, now + 30, now, 4);
    EXPECT_EQ(w.wakeAfter(now, ring.live()), now + 5);

    // A bucket emptied by unplace keeps its used bit until a wake-up
    // query walks past it.
    w.unplace(2, 0, b2);
    EXPECT_TRUE(w.used() >> b2 & 1u);
    EXPECT_EQ(w.wakeAfter(now, ring.live()), now + 9);
    EXPECT_FALSE(w.used() >> b2 & 1u);
    w.unplace(3, 1, b3);
    EXPECT_EQ(w.wakeAfter(now, ring.live()), now + 30);
    EXPECT_EQ(w.used(), 0u);

    // Later, a heap item can come before a bucket.
    now += 20;
    w.drain(now, ring.live());
    ring.seq[5] = 5;
    w.place(5, 1, now + 13, now, 5);
    EXPECT_EQ(w.wakeAfter(now, ring.live()), now + 10);
    ring.issued[4] = true;
    EXPECT_EQ(w.wakeAfter(now, ring.live()), now + 13);
}

TEST(ReadyWheel, LanesStayApart)
{
    Slots ring;
    ReadyWheel<2> w;
    w.clear(0);
    ring.seq[5] = 5;
    ring.seq[6] = 6;
    w.place(5, 0, 0, 0, 5);
    std::uint8_t b = w.place(5, 1, 3, 0, 5);
    w.place(6, 1, 20, 0, 6);
    EXPECT_TRUE(w.ready(0) == setOf({5}));
    EXPECT_FALSE(w.ready(1).any());

    w.drain(3, ring.live());
    EXPECT_TRUE(w.ready(0) == setOf({5}));
    EXPECT_TRUE(w.ready(1) == setOf({5}));
    w.unplace(5, 0, kNoBucket);
    EXPECT_FALSE(w.ready(0).any());
    EXPECT_TRUE(w.ready(1) == setOf({5}));

    w.drain(20, ring.live());
    EXPECT_FALSE(w.ready(0).any());
    EXPECT_TRUE(w.ready(1) == setOf({5, 6}));
    w.unplace(5, 1, b);
    EXPECT_TRUE(w.ready(1) == setOf({6}));
}
