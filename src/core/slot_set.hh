/**
 * @file
 * SlotSet: a set of ring slots, one bit per slot, for the issue
 * select's ready, fit and pending sets (DESIGN.md section 5.9). The
 * words live inline and every operation touches all of them, so a set
 * costs no pointer chase and no loop bound; slots past the ring's
 * capacity stay empty, which keeps the ring-order walk in first()
 * correct for any power-of-two capacity up to kMaxSlots.
 */

#ifndef SIMALPHA_CORE_SLOT_SET_HH
#define SIMALPHA_CORE_SLOT_SET_HH

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>

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

} // namespace simalpha

#endif // SIMALPHA_CORE_SLOT_SET_HH
