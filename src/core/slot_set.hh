/**
 * @file
 * SlotSet: a set of ring slots, one bit per slot, for the issue
 * select's ready, fit and pending sets (DESIGN.md section 5.9). The
 * words live inline and every operation touches all of them, so a set
 * costs no pointer chase and no loop bound; slots past the ring's
 * capacity stay empty, which keeps the ring-order walk in first()
 * correct for any power-of-two capacity up to kMaxSlots.
 *
 * ReadyWheel: the ready sets of one issue window, fed by a timing
 * wheel and a heap, which both cores' selects share.
 */

#ifndef SIMALPHA_CORE_SLOT_SET_HH
#define SIMALPHA_CORE_SLOT_SET_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/types.hh"

namespace simalpha {

class SlotSet
{
  public:
    static constexpr std::size_t kWords = 4;
    static constexpr std::size_t kMaxSlots = 64 * kWords;

    void
    set(std::size_t s)
    {
        _w[s >> 6] |= std::uint64_t(1) << (s & 63);
    }
    void
    reset(std::size_t s)
    {
        _w[s >> 6] &= ~(std::uint64_t(1) << (s & 63));
    }
    void
    assign(std::size_t s, bool on)
    {
        std::uint64_t bit = std::uint64_t(1) << (s & 63);
        std::uint64_t &w = _w[s >> 6];
        w = (w & ~bit) | ((std::uint64_t(0) - std::uint64_t(on)) & bit);
    }
    void clear() { _w = {}; }
    bool any() const { return (_w[0] | _w[1] | _w[2] | _w[3]) != 0; }
    /** Move every member of @p o into this set, leaving @p o empty. */
    void
    take(SlotSet &o)
    {
        for (std::size_t i = 0; i < kWords; i++)
            _w[i] |= o._w[i];
        o._w = {};
    }
    bool operator==(const SlotSet &o) const = default;

    /** The first slot of @p a & @p b, in ring order from slot @p head,
     *  that @p accept takes (-1 if none); @p accept sees each member
     *  once, oldest first. */
    template <typename Accept>
    static std::ptrdiff_t
    first(const SlotSet &a, const SlotSet &b, std::size_t head,
          Accept accept)
    {
        const std::size_t hw = head >> 6;
        const std::uint64_t from = ~std::uint64_t(0) << (head & 63);
        // The head's word is visited twice: its bits at or after the
        // head first, the wrapped ones last.
        std::uint64_t w = a._w[hw] & b._w[hw];
        const std::uint64_t wrapped = w & ~from;
        w &= from;
        for (std::size_t k = 0; k <= kWords; k++) {
            std::size_t wi = (hw + k) % kWords;
            if (k == kWords)
                w = wrapped;
            else if (k)
                w = a._w[wi] & b._w[wi];
            for (; w; w &= w - 1) {
                std::size_t s = wi * 64 + std::size_t(std::countr_zero(w));
                if (accept(s))
                    return std::ptrdiff_t(s);
            }
        }
        return -1;
    }

  private:
    std::array<std::uint64_t, kWords> _w{};
};

/** ReadyWheel::place's bucket for an entry in no wheel bucket. */
inline constexpr std::uint8_t kNoBucket = 0xff;

/**
 * When the unissued entries of one issue window become ready, per lane
 * (AlphaCore: a cluster of an issue queue; RuuCore: one lane). An
 * entry ready by now has its bit in its lane's ready set; one ready
 * within kBuckets - 1 cycles of the drain point waits in the wheel
 * bucket of its cycle (mod kBuckets); a later one (a miss, a long
 * divide) waits on a min-heap. The core names each entry by its ring
 * slot and seq: a heap item is stale once its slot holds another seq
 * or an issued entry, which the @c live(slot, seq) predicate that
 * drain() and wakeAfter() take reports, and is then dropped.
 */
template <std::size_t Lanes>
class ReadyWheel
{
  public:
    static constexpr Cycle kBuckets = 16;

    const SlotSet &ready(std::size_t lane) const { return _ready[lane]; }
    /** Bit b set if bucket b may be non-empty. */
    std::uint16_t used() const { return _used; }

    /** Empty every set and the heap; the wheel starts at @p now. */
    void
    clear(Cycle now)
    {
        for (SlotSet &set : _ready)
            set.clear();
        for (auto &bucket : _bucket)
            for (SlotSet &set : bucket)
                set.clear();
        _used = 0;
        _drainedTo = now;
        _heap.clear();
    }

    /** Enter @p slot (holding @p seq) on @p lane, ready at cycle @p at.
     *  @return the wheel bucket it went to, else kNoBucket. */
    std::uint8_t
    place(std::size_t slot, std::size_t lane, Cycle at, Cycle now,
          InstSeq seq)
    {
        if (_drainedTo < now)
            drainBuckets(now);  // the wheel must start at this cycle
        if (at >= now + kBuckets) {
            _heap.push_back({at, seq, std::uint32_t(slot),
                             std::uint8_t(lane)});
            std::push_heap(_heap.begin(), _heap.end(), std::greater<>());
            return kNoBucket;
        }
        // A ready bit now, or one in the bucket of its cycle: chosen
        // without a branch, as the two alternate unpredictably.
        bool later = at > now;
        std::uint8_t b = std::uint8_t(at % kBuckets);
        (later ? _bucket[b][lane] : _ready[lane]).set(slot);
        _used |= std::uint16_t(std::uint16_t(later) << b);
        return later ? b : kNoBucket;
    }

    /** Take @p slot off @p lane: out of its ready set and out of
     *  @p bucket (what place() returned for it). */
    void
    unplace(std::size_t slot, std::size_t lane, std::uint8_t bucket)
    {
        _ready[lane].reset(slot);
        if (bucket != kNoBucket)
            _bucket[bucket][lane].reset(slot);
    }

    /** Set the ready bits of every bucket and live heap item whose
     *  cycle has come by @p now. */
    template <typename Live>
    void
    drain(Cycle now, Live live)
    {
        if (_drainedTo < now)
            drainBuckets(now);
        if (!_heap.empty() && _heap.front().at <= now)
            drainHeap(now, live);
    }

    /** After drain(@p now): the earliest cycle an entry is ready after
     *  a select at @p now — @p now + 1 while a ready bit is left (its
     *  entry lost arbitration), else the earliest non-empty bucket or
     *  live heap item, kNoCycle when there is none. */
    template <typename Live>
    Cycle
    wakeAfter(Cycle now, Live live)
    {
        for (const SlotSet &set : _ready)
            if (set.any())
                return now + 1;
        return nextReady(now, live);
    }

  private:
    static_assert(kBuckets == 16, "_used holds one bit per bucket");

    struct Item
    {
        Cycle at;
        InstSeq seq;
        std::uint32_t slot;
        std::uint8_t lane;
        bool operator>(const Item &o) const { return at > o.at; }
    };

    // The rarer paths stay out of line, so the selects' per-cycle code
    // stays small.
    [[gnu::noinline]] void
    drainBuckets(Cycle now)
    {
        // Every bucket holds a cycle in (_drainedTo, _drainedTo +
        // kBuckets).
        Cycle steps = std::min(now - _drainedTo, kBuckets - 1);
        for (Cycle k = 1; k <= steps; k++) {
            std::size_t b = std::size_t((_drainedTo + k) % kBuckets);
            if (!(_used >> b & 1u))
                continue;
            _used &= std::uint16_t(~(1u << b));
            for (std::size_t l = 0; l < Lanes; l++)
                _ready[l].take(_bucket[b][l]);
        }
        _drainedTo = now;
    }

    template <typename Live>
    [[gnu::noinline]] void
    drainHeap(Cycle now, Live live)
    {
        while (!_heap.empty() && _heap.front().at <= now) {
            const Item &top = _heap.front();
            if (live(std::size_t(top.slot), top.seq))
                _ready[top.lane].set(top.slot);
            popHeap();
        }
    }

    template <typename Live>
    [[gnu::noinline]] Cycle
    nextReady(Cycle now, Live live)
    {
        // Entries issued since they were listed leave stale heap items.
        Cycle wake = kNoCycle;
        while (!_heap.empty()) {
            const Item &top = _heap.front();
            if (live(std::size_t(top.slot), top.seq)) {
                wake = top.at;
                break;
            }
            popHeap();
        }
        // The wheel holds cycles now + 1 .. now + kBuckets - 1; a
        // bucket marked used may have been emptied by unplace().
        const int next = int((now + 1) % kBuckets);
        while (_used) {
            int k = std::countr_zero(std::rotr(_used, next));
            if (now + 1 + Cycle(k) >= wake)
                break;
            std::size_t b = std::size_t(next + k) % kBuckets;
            for (const SlotSet &set : _bucket[b])
                if (set.any())
                    return now + 1 + Cycle(k);
            _used &= std::uint16_t(~(1u << b));
        }
        return wake;
    }

    void
    popHeap()
    {
        std::pop_heap(_heap.begin(), _heap.end(), std::greater<>());
        _heap.pop_back();
    }

    SlotSet _ready[Lanes];
    SlotSet _bucket[kBuckets][Lanes];
    std::uint16_t _used = 0;
    Cycle _drainedTo = 0;       ///< buckets up to here are drained
    std::vector<Item> _heap;
};

} // namespace simalpha

#endif // SIMALPHA_CORE_SLOT_SET_HH
