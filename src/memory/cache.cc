#include "cache.hh"

#include <algorithm>

#include "common/logging.hh"

namespace simalpha {

MshrPool::MshrPool(int entries, int targets_per_entry)
    : _entries(entries), _targetsPerEntry(targets_per_entry)
{
    if (entries <= 0)
        fatal("MSHR pool needs at least one entry");
}

void
MshrPool::expire(Cycle now)
{
    std::erase_if(_active,
                  [now](const Entry &e) { return e.fillDone <= now; });
}

Cycle
MshrPool::findMatch(Addr block, Cycle now)
{
    expire(now);
    for (const Entry &e : _active)
        if (e.block == block)
            return e.fillDone;
    return kNoCycle;
}

bool
MshrPool::addTarget(Addr block, Cycle now)
{
    expire(now);
    for (Entry &e : _active) {
        if (e.block == block) {
            if (e.targetsLeft > 0) {
                e.targetsLeft--;
                return true;
            }
            return false;
        }
    }
    return false;
}

Cycle
MshrPool::earliestFree(Cycle now)
{
    expire(now);
    Cycle earliest = kNoCycle;
    for (const Entry &e : _active)
        earliest = std::min(earliest, e.fillDone);
    return earliest;
}

int
MshrPool::entriesInUse(Cycle now)
{
    expire(now);
    return int(_active.size());
}

void
MshrPool::allocate(Addr block, Cycle fill_done, Cycle now, Cycle &avail_at)
{
    expire(now);
    avail_at = now;
    if (int(_active.size()) >= _entries) {
        // Pool full: the miss waits for the earliest outstanding fill.
        _fullStalls++;
        Cycle earliest = earliestFree(now);
        sim_assert(earliest != kNoCycle);
        avail_at = earliest;
        std::erase_if(_active, [earliest](const Entry &e) {
            return e.fillDone <= earliest;
        });
    }
    _active.push_back(Entry{block, fill_done, _targetsPerEntry - 1});
}

Cache::Cache(const CacheParams &params, MemLevel *downstream, Bus *bus,
             MshrPool *shared_mshrs)
    : _p(params),
      _downstream(downstream),
      _bus(bus),
      _ownMshrs(params.mshrEntries, params.mshrTargets),
      _mshrs(shared_mshrs ? shared_mshrs : &_ownMshrs),
      _stats(params.name),
      _hits(_stats.counter("hits")),
      _misses(_stats.counter("misses")),
      _writebacks(_stats.counter("writebacks")),
      _prefetches(_stats.counter("prefetches")),
      _victimHits(_stats.counter("victim_hits")),
      _mshrCombines(_stats.counter("mshr_combines")),
      _mshrTargetStalls(_stats.counter("mshr_target_stalls"))
{
    if (_p.sizeBytes <= 0 || _p.assoc <= 0 || _p.blockBytes <= 0)
        fatal("%s: invalid geometry", _p.name.c_str());
    int blocks = _p.sizeBytes / _p.blockBytes;
    _sets = blocks / _p.assoc;
    if (_sets <= 0 || (_sets & (_sets - 1)) != 0)
        fatal("%s: set count %d must be a power of two",
              _p.name.c_str(), _sets);
    _blockShift = 0;
    while ((1 << _blockShift) < _p.blockBytes)
        _blockShift++;
    if ((1 << _blockShift) != _p.blockBytes)
        fatal("%s: block size must be a power of two", _p.name.c_str());
    _lines.assign(std::size_t(blocks), Line{});
    _victims.assign(std::size_t(_p.victimEntries), VictimEntry{});
    _portFree.assign(std::size_t(std::max(1, _p.ports)), 0);
}

void
Cache::reset()
{
    if (_touchedAll) {
        _lines.assign(_lines.size(), Line{});
    } else {
        for (std::uint32_t i : _touched)
            _lines[i] = Line{};
    }
    _touched.clear();
    _touchedAll = false;
    _victims.assign(_victims.size(), VictimEntry{});
    _portFree.assign(_portFree.size(), 0);
    _useTick = 0;
    _insertTick = 0;
    _ownMshrs.reset();
    _stats.reset();
}

Cache::Line *
Cache::findLine(Addr block)
{
    std::size_t set = setOf(block);
    for (int w = 0; w < _p.assoc; w++) {
        Line &line = _lines[set * _p.assoc + w];
        if (line.tag == block)
            return &line;
    }
    return nullptr;
}

const Cache::Line *
Cache::findLine(Addr block) const
{
    return const_cast<Cache *>(this)->findLine(block);
}

Cache::Line &
Cache::victimLine(std::size_t set)
{
    Line *victim = nullptr;
    for (int w = 0; w < _p.assoc; w++) {
        Line &line = _lines[set * _p.assoc + w];
        if (line.tag == kNoAddr)
            return line;
        if (!victim || line.lastUse < victim->lastUse)
            victim = &line;
    }
    return *victim;
}

Cycle
Cache::acquirePort(Cycle now)
{
    // Pick the port that frees earliest; the access starts when both the
    // request arrives and that port is free.
    auto it = std::min_element(_portFree.begin(), _portFree.end());
    Cycle start = std::max(now, *it);
    *it = start + 1;
    return start;
}

bool
Cache::probe(Addr addr) const
{
    return findLine(blockOf(addr)) != nullptr;
}

int
Cache::wayOf(Addr addr) const
{
    Addr block = blockOf(addr);
    std::size_t set = setOf(block);
    for (int w = 0; w < _p.assoc; w++)
        if (_lines[set * _p.assoc + w].tag == block)
            return w;
    return -1;
}

int
Cache::victimLookup(Addr block)
{
    for (std::size_t i = 0; i < _victims.size(); i++)
        if (_victims[i].block == block)
            return int(i);
    return -1;
}

void
Cache::installBlock(Addr block, bool dirty, Cycle now, bool prefetched)
{
    std::size_t set = setOf(block);
    Line &line = victimLine(set);
    if (line.tag == kNoAddr)
        noteTouched(std::size_t(&line - _lines.data()));
    if (line.tag != kNoAddr && !_victims.empty()) {
        // Push the evicted block into the victim buffer (oldest replaced).
        auto oldest = std::min_element(
            _victims.begin(), _victims.end(),
            [](const VictimEntry &a, const VictimEntry &b) {
                return a.inserted < b.inserted;
            });
        if (oldest->block != kNoAddr && oldest->dirty && _downstream) {
            // The displaced victim writes back; occupancy only.
            ++_writebacks;
            _downstream->access(oldest->block << _blockShift, true, now);
        }
        oldest->block = line.tag;
        oldest->dirty = line.dirty;
        oldest->inserted = ++_insertTick;
    } else if (line.tag != kNoAddr && line.dirty && _p.writeback &&
               _downstream) {
        ++_writebacks;
        _downstream->access(line.tag << _blockShift, true, now);
    }
    line.tag = block;
    line.dirty = dirty;
    line.prefetched = prefetched;
    line.fillDone = now;
    line.lastUse = ++_useTick;
}

Cycle
Cache::fillFromBelow(Addr block, Cycle start, bool &below_hit)
{
    below_hit = false;
    if (!_downstream)
        return start;   // perfect backing store
    Cycle request_at = start;
    if (_bus)
        request_at = _bus->transfer(start, 8);  // address beat
    AccessResult below = _downstream->access(block << _blockShift, false,
                                             request_at);
    below_hit = below.hit;
    Cycle data_at = below.done;
    if (_bus)
        data_at = _bus->transfer(data_at, _p.blockBytes);
    return data_at;
}

void
Cache::issuePrefetches(Addr block, Cycle from)
{
    for (int i = 1; i <= _p.prefetchLines; i++) {
        Addr pf_block = block + Addr(i);
        if (findLine(pf_block) ||
            _mshrs->findMatch(pf_block, from) != kNoCycle)
            continue;
        ++_prefetches;
        bool pf_below_hit = false;
        Cycle pf_done = fillFromBelow(pf_block, from, pf_below_hit);
        Cycle pf_avail;
        _mshrs->allocate(pf_block, pf_done, from, pf_avail);
        installBlock(pf_block, false, pf_done, true);
    }
}

AccessResult
Cache::access(Addr addr, bool is_write, Cycle now)
{
    AccessResult res;
    Addr block = blockOf(addr);

    Cycle start = now;
    if (!is_write || _p.storesContend)
        start = acquirePort(now);

    Line *line = findLine(block);
    if (line) {
        ++_hits;
        line->lastUse = ++_useTick;
        if (is_write)
            line->dirty = true;
        if (line->prefetched) {
            // First demand touch of a prefetched block re-arms the
            // sequential stream so it keeps running ahead of fetch.
            line->prefetched = false;
            issuePrefetches(block, start);
        }
        res.hit = line->fillDone <= start;
        res.belowHit = true;
        // A block still in flight delivers when its fill completes.
        res.done = std::max(start + Cycle(_p.hitLatency),
                            line->fillDone);
        return res;
    }

    ++_misses;

    // Victim buffer: a short bounce back into the cache.
    int vidx = victimLookup(block);
    if (vidx >= 0) {
        ++_victimHits;
        bool vdirty = _victims[vidx].dirty || is_write;
        _victims[vidx].block = kNoAddr;
        installBlock(block, vdirty, start);
        res.hit = false;
        res.belowHit = true;
        res.done = start + Cycle(_p.hitLatency) + 1;
        return res;
    }

    // MAF: combine with an outstanding miss to the same block.
    Cycle in_flight = _mshrs->findMatch(block, start);
    if (in_flight != kNoCycle) {
        ++_mshrCombines;
        Cycle done = in_flight;
        if (!_mshrs->addTarget(block, start)) {
            ++_mshrTargetStalls;
            done += 1;
        }
        res.hit = false;
        res.belowHit = true;
        res.done = std::max(done, start + Cycle(_p.hitLatency));
        return res;
    }

    // New miss: allocate a MAF entry (a full pool delays the miss until
    // the earliest outstanding fill frees an entry), then fetch from
    // below and install.
    bool below_hit = false;
    Cycle alloc_start = start;
    Cycle earliest = _mshrs->earliestFree(start);
    if (_mshrs->entriesInUse(start) >= _mshrs->capacity() &&
        earliest != kNoCycle && earliest > start) {
        alloc_start = earliest;
    }
    Cycle fill_done = fillFromBelow(block, alloc_start, below_hit);
    Cycle avail_at;
    _mshrs->allocate(block, fill_done, alloc_start, avail_at);
    if (avail_at > alloc_start)
        fill_done += (avail_at - alloc_start);

    installBlock(block, is_write, fill_done);

    // Sequential prefetch: bring in the next lines (occupancy only; the
    // demand miss does not wait for them).
    issuePrefetches(block, fill_done);

    res.hit = false;
    res.belowHit = below_hit;
    res.done = fill_done + Cycle(_p.hitLatency);
    return res;
}

} // namespace simalpha
