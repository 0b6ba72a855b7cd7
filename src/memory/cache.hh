/**
 * @file
 * A set-associative write-back cache timing model with:
 *  - a miss address file (MAF / MSHR, after Kroft) with combining targets,
 *  - an optional victim buffer for evicted blocks,
 *  - port contention,
 *  - optional sequential hardware prefetch on miss (the 21264 I-cache
 *    prefetches up to four lines),
 *  - an optional *shared* MAF pool so several caches can contend for the
 *    same eight entries (the real 21264 shares one MAF among its caches;
 *    sim-alpha gives each cache its own — both are modeled).
 */

#ifndef SIMALPHA_MEMORY_CACHE_HH
#define SIMALPHA_MEMORY_CACHE_HH

#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "memory/memlevel.hh"

namespace simalpha {

/**
 * A pool of miss-status registers. Entries expire when their fill
 * completes; allocation while full stalls until the earliest fill.
 */
class MshrPool
{
  public:
    MshrPool(int entries, int targets_per_entry);

    /**
     * Look for an in-flight miss covering `block`.
     * @return fill-completion cycle, or kNoCycle if none
     */
    Cycle findMatch(Addr block, Cycle now);

    /**
     * Add a combining target to an in-flight miss.
     * @return true if a target slot was available
     */
    bool addTarget(Addr block, Cycle now);

    /**
     * Allocate an entry for a new miss.
     * @param now request cycle
     * @param[out] avail_at cycle the allocation can proceed (now, or when
     *             an entry frees if the pool is full)
     * @return true always (allocation may just be delayed)
     */
    void allocate(Addr block, Cycle fill_done, Cycle now, Cycle &avail_at);

    /** Earliest cycle at which any entry frees (kNoCycle if empty). */
    Cycle earliestFree(Cycle now);

    int entriesInUse(Cycle now);
    int capacity() const { return _entries; }

    std::uint64_t fullStalls() const { return _fullStalls; }

    /** Restore freshly-constructed state (campaign core reuse). */
    void
    reset()
    {
        _active.clear();
        _fullStalls = 0;
    }

  private:
    struct Entry
    {
        Addr block = kNoAddr;
        Cycle fillDone = 0;
        int targetsLeft = 0;
    };

    void expire(Cycle now);

    int _entries;
    int _targetsPerEntry;
    std::vector<Entry> _active;
    std::uint64_t _fullStalls = 0;
};

struct CacheParams
{
    std::string name = "cache";
    int sizeBytes = 64 * 1024;
    int assoc = 2;
    int blockBytes = 64;
    int hitLatency = 1;         ///< cycles from access to data
    int ports = 1;              ///< concurrent accesses per cycle
    int mshrEntries = 8;
    int mshrTargets = 4;
    int victimEntries = 0;
    int prefetchLines = 0;      ///< sequential lines prefetched on miss
    bool writeback = true;
    /** Stores occupy a cache port (golden) vs complete unimpeded. */
    bool storesContend = false;
};

class Cache : public MemLevel
{
  public:
    /**
     * @param params geometry and policy
     * @param downstream next level (L2 or DRAM); may be nullptr for a
     *        perfect backing store with zero extra latency
     * @param bus optional bus between this cache and downstream
     * @param shared_mshrs optional externally owned MAF pool; when given,
     *        the private pool is not used
     */
    Cache(const CacheParams &params, MemLevel *downstream,
          Bus *bus = nullptr, MshrPool *shared_mshrs = nullptr);

    AccessResult access(Addr addr, bool is_write, Cycle now) override;

    /** Non-timing probe: would this address hit right now? */
    bool probe(Addr addr) const;

    /**
     * Which way holds this address (for the way predictor)?
     * @return way index, or -1 on miss
     */
    int wayOf(Addr addr) const;

    stats::Group &statGroup() { return _stats; }
    const CacheParams &params() const { return _p; }

    /** Restore freshly-constructed state (campaign core reuse); the
     *  bound counter references stay valid across the reset. Clears
     *  only the lines noted since the last reset, or the whole array
     *  once the notes passed 1/kFullResetShare of it. */
    void reset();

    /** Total lines across all sets/ways (injection-index folding). */
    std::size_t lineCount() const { return _lines.size(); }

    /**
     * Soft-error injection: XOR one bit of one tag-array entry. Set
     * lookups mask the tag, so an arbitrarily corrupted tag reads as
     * a miss (or a false hit within its set) — timing-visible state
     * only, never out-of-bounds.
     */
    void
    injectTagFlip(std::uint64_t index, std::uint32_t bit)
    {
        std::size_t i = std::size_t(index % _lines.size());
        noteTouched(i);
        _lines[i].tag ^= Addr(1) << (bit % 64);
    }

    std::uint64_t hits() const { return _hits.value(); }
    std::uint64_t misses() const { return _misses.value(); }

  private:
    struct Line
    {
        Addr tag = kNoAddr;     ///< block address (addr >> blockShift)
        bool dirty = false;
        /** Cycle the fill delivering this block completes; accesses that
         *  arrive earlier wait for it (the block is in flight). */
        Cycle fillDone = 0;
        /** Installed by prefetch and not yet demanded: the first demand
         *  hit re-arms the sequential prefetch stream. */
        bool prefetched = false;
        std::uint64_t lastUse = 0;
    };

    struct VictimEntry
    {
        Addr block = kNoAddr;
        bool dirty = false;
        std::uint64_t inserted = 0;
    };

    Addr blockOf(Addr addr) const { return addr >> _blockShift; }
    std::size_t setOf(Addr block) const
    {
        return std::size_t(block & Addr(_sets - 1));
    }

    /** Note that line @p i may no longer equal Line{}: a line leaves
     *  that state only through a fill from empty or a tag flip, so the
     *  notes name every line reset() must clear. */
    void
    noteTouched(std::size_t i)
    {
        if (_touched.size() < _lines.size() / kFullResetShare)
            _touched.push_back(std::uint32_t(i));
        else
            _touchedAll = true;
    }

    Line *findLine(Addr block);
    const Line *findLine(Addr block) const;
    Line &victimLine(std::size_t set);
    Cycle acquirePort(Cycle now);
    void installBlock(Addr block, bool dirty, Cycle now,
                      bool prefetched = false);
    Cycle fillFromBelow(Addr block, Cycle start, bool &below_hit);
    int victimLookup(Addr block);
    void issuePrefetches(Addr block, Cycle from);

    CacheParams _p;
    MemLevel *_downstream;
    Bus *_bus;
    MshrPool _ownMshrs;
    MshrPool *_mshrs;

    int _sets;
    int _blockShift;
    std::vector<Line> _lines;
    /** Past this share of the array reset() clears all of it: one
     *  sequential pass beats that many scattered stores, and the notes
     *  stay bounded. */
    static constexpr std::size_t kFullResetShare = 4;
    std::vector<std::uint32_t> _touched;    ///< see noteTouched()
    bool _touchedAll = false;
    std::vector<VictimEntry> _victims;
    std::vector<Cycle> _portFree;
    std::uint64_t _useTick = 0;
    std::uint64_t _insertTick = 0;
    stats::Group _stats;
    // Bound once at construction; the string-keyed map stays for
    // registration and dumps only, never on the access path.
    stats::Counter &_hits;
    stats::Counter &_misses;
    stats::Counter &_writebacks;
    stats::Counter &_prefetches;
    stats::Counter &_victimHits;
    stats::Counter &_mshrCombines;
    stats::Counter &_mshrTargetStalls;
};

} // namespace simalpha

#endif // SIMALPHA_MEMORY_CACHE_HH
