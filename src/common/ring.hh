/**
 * @file
 * Ring: the double-ended-queue subset the timing models' in-flight
 * windows use (push at the back, pop at either end, indexed and
 * iterated access), stored in one power-of-two array so that pushes
 * and pops never allocate. libstdc++'s std::deque holds one element
 * per node once an element is over 256 bytes, as DynInst is, so every
 * push allocated.
 *
 * Elements stay in place while resident, so references into the ring
 * remain valid until their element is popped — unless a push finds
 * the ring full, which doubles the capacity and moves every element
 * (as std::vector does). Windows whose elements are referenced from
 * elsewhere are sized for their bound up front and never grow; they
 * may also name an element by its slot (its fixed array position),
 * whose order from headSlot() is the ring's order.
 * Popped slots are not destroyed, only reused: T should be a plain
 * record.
 */

#ifndef SIMALPHA_COMMON_RING_HH
#define SIMALPHA_COMMON_RING_HH

#include <cstddef>
#include <iterator>
#include <type_traits>
#include <utility>
#include <vector>

namespace simalpha {

template <typename T>
class Ring
{
    static_assert(std::is_trivially_destructible_v<T>,
                  "Ring reuses popped slots without destroying them");

    template <bool Const>
    class Iter
    {
      public:
        using iterator_category = std::random_access_iterator_tag;
        using value_type = T;
        using difference_type = std::ptrdiff_t;
        using pointer = std::conditional_t<Const, const T *, T *>;
        using reference = std::conditional_t<Const, const T &, T &>;
        using RingPtr = std::conditional_t<Const, const Ring *, Ring *>;

        Iter() = default;
        Iter(RingPtr ring, std::size_t index) : _ring(ring), _i(index) {}
        /** Mutable iterators convert to const ones. */
        operator Iter<true>() const { return {_ring, _i}; }

        reference operator*() const { return (*_ring)[_i]; }
        pointer operator->() const { return &(*_ring)[_i]; }
        reference
        operator[](difference_type n) const
        {
            return (*_ring)[std::size_t(difference_type(_i) + n)];
        }

        Iter &operator++() { ++_i; return *this; }
        Iter &operator--() { --_i; return *this; }
        Iter operator++(int) { Iter t = *this; ++_i; return t; }
        Iter operator--(int) { Iter t = *this; --_i; return t; }
        Iter &
        operator+=(difference_type n)
        {
            _i = std::size_t(difference_type(_i) + n);
            return *this;
        }
        Iter &operator-=(difference_type n) { return *this += -n; }
        Iter
        operator+(difference_type n) const
        {
            Iter t = *this;
            return t += n;
        }
        Iter
        operator-(difference_type n) const
        {
            Iter t = *this;
            return t -= n;
        }
        friend Iter operator+(difference_type n, Iter it) { return it += n; }
        difference_type
        operator-(const Iter &o) const
        {
            return difference_type(_i) - difference_type(o._i);
        }
        bool operator==(const Iter &o) const { return _i == o._i; }
        auto operator<=>(const Iter &o) const { return _i <=> o._i; }

      private:
        RingPtr _ring = nullptr;
        std::size_t _i = 0;     ///< logical index from the front
    };

  public:
    using value_type = T;
    using iterator = Iter<false>;
    using const_iterator = Iter<true>;
    using reverse_iterator = std::reverse_iterator<iterator>;
    using const_reverse_iterator = std::reverse_iterator<const_iterator>;

    /** An empty ring that holds @p capacity elements before growing. */
    explicit Ring(std::size_t capacity = 16)
    {
        std::size_t n = 1;
        while (n < capacity)
            n <<= 1;
        _buf.resize(n);
        _mask = n - 1;
    }

    std::size_t size() const { return _size; }
    bool empty() const { return _size == 0; }
    std::size_t capacity() const { return _buf.size(); }

    /** Slot-level access: a resident element's array position, the
     *  element in a slot, and the front element's slot. */
    std::size_t
    slotOf(const T &elem) const
    {
        return std::size_t(&elem - _buf.data());
    }
    T &atSlot(std::size_t slot) { return _buf[slot]; }
    std::size_t headSlot() const { return _head; }

    T &operator[](std::size_t i) { return _buf[(_head + i) & _mask]; }
    const T &
    operator[](std::size_t i) const
    {
        return _buf[(_head + i) & _mask];
    }
    T &front() { return (*this)[0]; }
    const T &front() const { return (*this)[0]; }
    T &back() { return (*this)[_size - 1]; }
    const T &back() const { return (*this)[_size - 1]; }

    void
    push_back(T &&value)
    {
        if (_size == _buf.size())
            grow();
        _buf[(_head + _size) & _mask] = std::move(value);
        ++_size;
    }
    void push_back(const T &value) { push_back(T(value)); }

    /** Append a value-initialized element and return it. */
    T &
    emplace_back()
    {
        if (_size == _buf.size())
            grow();
        T &slot = _buf[(_head + _size) & _mask];
        slot = T{};
        ++_size;
        return slot;
    }

    void
    pop_front()
    {
        _head = (_head + 1) & _mask;
        --_size;
    }
    void pop_back() { --_size; }
    void
    clear()
    {
        _head = 0;
        _size = 0;
    }

    iterator begin() { return {this, 0}; }
    iterator end() { return {this, _size}; }
    const_iterator begin() const { return {this, 0}; }
    const_iterator end() const { return {this, _size}; }
    reverse_iterator rbegin() { return reverse_iterator(end()); }
    reverse_iterator rend() { return reverse_iterator(begin()); }
    const_reverse_iterator
    rbegin() const
    {
        return const_reverse_iterator(end());
    }
    const_reverse_iterator
    rend() const
    {
        return const_reverse_iterator(begin());
    }

  private:
    void
    grow()
    {
        std::vector<T> bigger(_buf.size() * 2);
        for (std::size_t i = 0; i < _size; i++)
            bigger[i] = std::move((*this)[i]);
        _buf.swap(bigger);
        _head = 0;
        _mask = _buf.size() - 1;
    }

    std::vector<T> _buf;
    std::size_t _mask = 0;
    std::size_t _head = 0;      ///< slot of the front element
    std::size_t _size = 0;
};

} // namespace simalpha

#endif // SIMALPHA_COMMON_RING_HH
