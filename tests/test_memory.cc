/**
 * @file
 * Memory-system unit tests: cache hits/misses/LRU, MSHR combining and
 * exhaustion, the victim buffer, in-flight fill timing, prefetch
 * streaming, bus serialization, DRAM page policies, TLB modes, and the
 * full hierarchy wiring.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "memory/cache.hh"
#include "memory/dram.hh"
#include "memory/hierarchy.hh"
#include "memory/tlb.hh"

using namespace simalpha;

namespace {

CacheParams
tinyCache()
{
    CacheParams p;
    p.name = "tiny";
    p.sizeBytes = 1024;     // 8 sets x 2 ways x 64B
    p.assoc = 2;
    p.blockBytes = 64;
    p.hitLatency = 3;
    p.ports = 2;
    p.mshrEntries = 4;
    p.mshrTargets = 2;
    return p;
}

/** A fixed-latency backing store for cache tests. */
class FixedLevel : public MemLevel
{
  public:
    explicit FixedLevel(Cycle latency) : _latency(latency) {}

    AccessResult
    access(Addr, bool, Cycle now) override
    {
        accesses++;
        AccessResult r;
        r.done = now + _latency;
        r.hit = true;
        r.belowHit = true;
        return r;
    }

    int accesses = 0;

  private:
    Cycle _latency;
};

} // namespace

TEST(Cache, MissThenHit)
{
    FixedLevel below(50);
    Cache c(tinyCache(), &below);
    AccessResult miss = c.access(0x1000, false, 0);
    EXPECT_FALSE(miss.hit);
    EXPECT_GE(miss.done, 50u);
    AccessResult hit = c.access(0x1008, false, miss.done);
    EXPECT_TRUE(hit.hit);
    EXPECT_EQ(hit.done, miss.done + 3);
    EXPECT_EQ(c.hits(), 1u);
    EXPECT_EQ(c.misses(), 1u);
}

TEST(Cache, InFlightFillDelaysEarlyHit)
{
    // A second access to a block whose fill has not completed must wait
    // for the fill, not sail through at hit latency.
    FixedLevel below(100);
    Cache c(tinyCache(), &below);
    c.access(0x1000, false, 0);
    AccessResult early = c.access(0x1000, false, 5);
    EXPECT_GE(early.done, 100u);    // waits out the 100-cycle fill
}

TEST(Cache, LruEvictsOldest)
{
    FixedLevel below(10);
    Cache c(tinyCache(), &below);
    // Three blocks mapping to set 0 (set stride = 8 blocks * 64B).
    c.access(0x0000, false, 0);
    c.access(0x2000, false, 100);
    c.access(0x0000, false, 200);       // touch: 0x2000 becomes LRU
    c.access(0x4000, false, 300);       // evicts 0x2000
    AccessResult r = c.access(0x0000, false, 400);
    EXPECT_TRUE(r.hit);
    AccessResult r2 = c.access(0x2000, false, 500);
    EXPECT_FALSE(r2.hit);
}

TEST(Cache, WritebackOnDirtyEviction)
{
    FixedLevel below(10);
    CacheParams p = tinyCache();
    Cache c(p, &below);
    c.access(0x0000, true, 0);          // dirty
    c.access(0x2000, false, 100);
    c.access(0x4000, false, 200);       // evicts dirty 0x0000
    EXPECT_EQ(c.statGroup().get("writebacks"), 1u);
}

TEST(Cache, VictimBufferBouncesBack)
{
    FixedLevel below(100);
    CacheParams p = tinyCache();
    p.victimEntries = 4;
    Cache c(p, &below);
    c.access(0x0000, false, 0);
    c.access(0x2000, false, 200);
    c.access(0x4000, false, 400);       // 0x0000 evicted to victim buf
    int before = below.accesses;
    AccessResult r = c.access(0x0000, false, 600);
    EXPECT_FALSE(r.hit);
    EXPECT_EQ(r.done, 600u + 3 + 1);    // victim hit: hitLatency + 1
    EXPECT_EQ(below.accesses, before);  // no downstream traffic
    EXPECT_EQ(c.statGroup().get("victim_hits"), 1u);
}

TEST(Cache, MshrCombinesSameBlock)
{
    FixedLevel below(100);
    Cache c(tinyCache(), &below);
    c.access(0x1000, false, 0);
    int before = below.accesses;
    // Second miss to the same in-flight block — the installed line is
    // present with a future fill, so it waits without new traffic.
    AccessResult r = c.access(0x1040 - 0x40, false, 1);
    EXPECT_EQ(below.accesses, before);
    EXPECT_GE(r.done, 100u);
}

TEST(Cache, MshrPoolExhaustionDelays)
{
    MshrPool pool(2, 2);
    Cycle avail;
    pool.allocate(1, 100, 0, avail);
    EXPECT_EQ(avail, 0u);
    pool.allocate(2, 200, 0, avail);
    EXPECT_EQ(avail, 0u);
    // Third allocation waits for the earliest fill (cycle 100).
    pool.allocate(3, 300, 0, avail);
    EXPECT_EQ(avail, 100u);
    EXPECT_EQ(pool.fullStalls(), 1u);
}

TEST(Cache, MshrEntriesExpire)
{
    MshrPool pool(2, 2);
    Cycle avail;
    pool.allocate(1, 50, 0, avail);
    EXPECT_EQ(pool.entriesInUse(10), 1);
    EXPECT_EQ(pool.entriesInUse(60), 0);
    EXPECT_EQ(pool.findMatch(1, 60), kNoCycle);
}

TEST(Cache, PrefetchStreamsAhead)
{
    FixedLevel below(50);
    CacheParams p = tinyCache();
    p.sizeBytes = 4096;
    p.prefetchLines = 2;
    Cache c(p, &below);
    AccessResult r = c.access(0x0000, false, 0);
    // Blocks +1 and +2 were prefetched.
    EXPECT_EQ(c.statGroup().get("prefetches"), 2u);
    // A later demand hit on a prefetched block re-arms the stream.
    c.access(0x0040, false, r.done + 100);
    EXPECT_GT(c.statGroup().get("prefetches"), 2u);
}

TEST(Cache, PortContentionSerializes)
{
    FixedLevel below(10);
    CacheParams p = tinyCache();
    p.ports = 1;
    Cache c(p, &below);
    c.access(0x0000, false, 0);
    AccessResult a = c.access(0x0000, false, 100);
    AccessResult b = c.access(0x0000, false, 100);
    // One port: the second access starts a cycle later.
    EXPECT_EQ(b.done, a.done + 1);
}

TEST(Cache, StoresContendTakesPort)
{
    FixedLevel below(10);
    CacheParams p = tinyCache();
    p.ports = 1;
    p.storesContend = true;
    Cache c(p, &below);
    c.access(0x0000, false, 0);
    AccessResult a = c.access(0x0000, true, 100);
    AccessResult b = c.access(0x0000, false, 100);
    EXPECT_EQ(b.done, a.done + 1);
}

TEST(Bus, TransfersSerialize)
{
    Bus bus(8, 2);      // 8 bytes per beat, 2 cycles per beat
    Cycle first = bus.transfer(0, 64);  // 8 beats = 16 cycles
    EXPECT_EQ(first, 16u);
    Cycle second = bus.transfer(0, 8);
    EXPECT_EQ(second, 18u);             // waits for the first
    EXPECT_EQ(bus.transfers(), 2u);
}

TEST(Dram, OpenPageRowHitsAreFaster)
{
    DramParams p;
    Dram d(p);
    AccessResult first = d.access(0x0000, false, 0);
    Cycle miss_latency = first.done;
    AccessResult second = d.access(0x0008, false, first.done);
    Cycle hit_latency = second.done - first.done;
    EXPECT_LT(hit_latency, miss_latency);
    EXPECT_EQ(d.rowHits(), 1u);
    EXPECT_EQ(d.rowMisses(), 1u);
}

TEST(Dram, ClosedPageNeverRowHits)
{
    DramParams p;
    p.openPage = false;
    Dram d(p);
    d.access(0x0000, false, 0);
    d.access(0x0008, false, 1000);
    EXPECT_EQ(d.rowHits(), 0u);
    EXPECT_EQ(d.rowMisses(), 2u);
}

TEST(Dram, BankConflictSerializes)
{
    DramParams p;
    Dram d(p);
    // Same bank (same row even): back-to-back requests queue.
    AccessResult a = d.access(0x0000, false, 0);
    AccessResult b = d.access(0x0040, false, 0);
    EXPECT_GT(b.done, a.done);
}

TEST(Dram, FlatLatencyMode)
{
    DramParams p;
    p.flatLatency = 62;
    Dram d(p);
    AccessResult a = d.access(0x12345, false, 10);
    EXPECT_EQ(a.done, 72u);
    AccessResult b = d.access(0x9999999, false, 10);
    EXPECT_EQ(b.done, 72u);     // no bank state, no contention
}

TEST(Dram, ReorderingControllerCutsRowMissCost)
{
    DramParams p;
    Dram plain(p);
    p.reorderingController = true;
    Dram reorder(p);
    // Alternate rows in the same bank: all row misses.
    Cycle t_plain = 0, t_re = 0;
    for (int i = 0; i < 8; i++) {
        Addr a = (i % 2) ? 0x40000 : 0x0;
        t_plain = plain.access(a, false, t_plain).done;
        t_re = reorder.access(a, false, t_re).done;
    }
    EXPECT_LT(t_re, t_plain);
}

TEST(Tlb, HitHasNoCost)
{
    TlbParams p;
    Tlb tlb(p, nullptr);
    tlb.translate(0x1000, 0);
    TlbResult r = tlb.translate(0x1008, 10);
    EXPECT_FALSE(r.miss);
    EXPECT_EQ(r.extraLatency, 0u);
    EXPECT_EQ(r.pipelineStall, 0u);
}

TEST(Tlb, HardwareWalkDelaysAccessOnly)
{
    TlbParams p;
    p.hardwareWalk = true;
    Tlb tlb(p, nullptr);
    TlbResult r = tlb.translate(0x123456000ULL, 0);
    EXPECT_TRUE(r.miss);
    EXPECT_GT(r.extraLatency, 0u);
    EXPECT_EQ(r.pipelineStall, 0u);
}

TEST(Tlb, PalModeStallsPipeline)
{
    TlbParams p;
    p.hardwareWalk = false;
    p.palStallCycles = 50;
    Tlb tlb(p, nullptr);
    TlbResult r = tlb.translate(0x123456000ULL, 0);
    EXPECT_TRUE(r.miss);
    EXPECT_EQ(r.pipelineStall, 50u);
    EXPECT_EQ(r.extraLatency, 0u);
}

TEST(Tlb, ColoredMappingPreservesAdjacency)
{
    TlbParams p;
    p.pageColoring = true;
    Tlb tlb(p, nullptr);
    Addr a = tlb.translateProbe(0x140000000ULL);
    Addr b = tlb.translateProbe(0x140002000ULL);   // next 8KB page
    EXPECT_EQ(b - a, 0x2000u);
}

TEST(Tlb, ProbeHasNoSideEffects)
{
    TlbParams p;
    Tlb tlb(p, nullptr);
    tlb.translateProbe(0x98765000ULL);
    EXPECT_EQ(tlb.misses(), 0u);
    EXPECT_EQ(tlb.statGroup().get("lookups"), 0u);
}

TEST(Tlb, OffsetPreserved)
{
    TlbParams p;
    Tlb tlb(p, nullptr);
    Addr v = 0x140001234ULL;
    TlbResult r = tlb.translate(v, 0);
    EXPECT_EQ(r.paddr & 0x1FFFu, v & 0x1FFFu);
}

TEST(Hierarchy, FetchAndDataPathsWork)
{
    MemorySystemParams p = MemorySystemParams::ds10l();
    MemorySystem mem(p);
    MemAccessResult f = mem.fetchAccess(0x120000000ULL, 0);
    EXPECT_FALSE(f.l1Hit);              // cold
    MemAccessResult f2 = mem.fetchAccess(0x120000000ULL, f.done);
    EXPECT_TRUE(f2.l1Hit);
    MemAccessResult d = mem.dataAccess(0x140000000ULL, false, 0);
    EXPECT_FALSE(d.l1Hit);
    MemAccessResult d2 = mem.dataAccess(0x140000000ULL, false, d.done);
    EXPECT_TRUE(d2.l1Hit);
    EXPECT_EQ(d2.done, d.done + 3);     // 3-cycle load-to-use
}

TEST(Hierarchy, L2CatchesL1Misses)
{
    MemorySystemParams p = MemorySystemParams::ds10l();
    MemorySystem mem(p);
    // Two L1-conflicting addresses (64KB/2-way: 32KB apart same set,
    // plus a third to evict) still hit the 2MB L2 on re-access.
    Cycle t = 0;
    for (Addr a : {Addr(0x140000000ULL), Addr(0x140008000ULL),
                   Addr(0x140010000ULL)})
        t = mem.dataAccess(a, false, t).done;
    MemAccessResult r = mem.dataAccess(0x140000000ULL, false, t);
    if (!r.l1Hit)
        EXPECT_TRUE(r.l2Hit);
}

TEST(Hierarchy, ProbeMatchesAccessState)
{
    MemorySystemParams p = MemorySystemParams::ds10l();
    MemorySystem mem(p);
    EXPECT_FALSE(mem.dcacheProbe(0x140000000ULL));
    mem.dataAccess(0x140000000ULL, false, 0);
    EXPECT_TRUE(mem.dcacheProbe(0x140000000ULL));
}

TEST(Hierarchy, SharedMafIsUsedWhenConfigured)
{
    MemorySystemParams p = MemorySystemParams::ds10l();
    p.sharedMaf = true;
    p.sharedMafEntries = 2;
    MemorySystem mem(p);
    // With a 2-entry shared MAF, a burst of distinct misses from both
    // caches must still complete (delayed, not dropped).
    Cycle done = 0;
    for (int i = 0; i < 6; i++) {
        MemAccessResult r =
            mem.dataAccess(0x140000000ULL + Addr(i) * 4096, false, 0);
        done = std::max(done, r.done);
    }
    EXPECT_GT(done, 0u);
}

TEST(Cache, ResetAfterAnyHistoryAnswersAsAFreshCache)
{
    // A line leaves its empty state only by a fill or a tag flip, and
    // reset() clears only the lines it noted (all of them past a
    // quarter of the array). Both histories below fill, evict through
    // the victim buffer and back, prefetch, dirty lines and flip one
    // filled and one empty tag; the light one stays under the quarter,
    // the heavy one passes it. Afterwards every access must get the
    // answer, and fill the way, that a freshly built cache gives.
    CacheParams p;
    p.name = "l1";          // 512 sets x 2 ways x 64B
    p.sizeBytes = 64 * 1024;
    p.assoc = 2;
    p.victimEntries = 4;
    p.prefetchLines = 2;
    auto block_addr = [](int set, int tag) {
        return (Addr(set) + Addr(tag) * 512) << 6;
    };
    for (int sets : {16, 200}) {
        FixedLevel used_below(20);
        Cache used(p, &used_below);
        Cycle t = 0;
        for (int pass = 0; pass < 3; pass++)
            for (int b = 0; b < 3 * sets; b++)
                used.access(block_addr(b / 3, b % 3), (b + pass) % 4 == 0,
                            t += 3);
        used.injectTagFlip(0, 5);           // set 0, way 0: filled
        used.injectTagFlip(2 * 300, 63);    // set 300, way 0: empty
        used.reset();
        used_below.accesses = 0;

        FixedLevel fresh_below(20);
        Cache fresh(p, &fresh_below);
        t = 0;
        for (int b = 0; b < 3 * 512; b++) {
            Addr addr = block_addr(b % 512, b / 512);
            bool write = b % 5 == 0;
            t += 2;
            AccessResult u = used.access(addr, write, t);
            AccessResult f = fresh.access(addr, write, t);
            ASSERT_EQ(u.hit, f.hit) << "sets=" << sets << " access " << b;
            ASSERT_EQ(u.belowHit, f.belowHit) << "access " << b;
            ASSERT_EQ(u.done, f.done) << "access " << b;
            ASSERT_EQ(used.wayOf(addr), fresh.wayOf(addr)) << "access " << b;
        }
        std::ostringstream u, f;
        used.statGroup().dump(u);
        fresh.statGroup().dump(f);
        EXPECT_EQ(u.str(), f.str()) << "sets=" << sets;
        EXPECT_EQ(used_below.accesses, fresh_below.accesses);
    }
}
