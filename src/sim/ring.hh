/**
 * @file
 * An allocation-free FIFO for the simulator hot path.
 *
 * RingQueue is a circular FIFO over a power-of-two vector: push_back /
 * pop_front never allocate once the ring has reached its steady-state
 * capacity (reserve up front when the bound is known, e.g. a cache's
 * rqSize). It replaces the std::deque queues that used to churn one
 * chunk allocation every few requests. Growth relinearises into a
 * larger buffer, so FIFO order is always preserved bit-identically.
 */

#ifndef BERTI_SIM_RING_HH
#define BERTI_SIM_RING_HH

#include <cstddef>
#include <iterator>
#include <type_traits>
#include <vector>

namespace berti
{

template <typename T>
class RingQueue
{
  public:
    RingQueue() = default;
    explicit RingQueue(std::size_t capacity) { reserve(capacity); }

    /** Grow storage to hold at least n elements without reallocating. */
    void
    reserve(std::size_t n)
    {
        if (n > buf.size())
            grow(n);
    }

    bool empty() const { return count == 0; }
    std::size_t size() const { return count; }
    std::size_t capacity() const { return buf.size(); }

    T &front() { return buf[head]; }
    const T &front() const { return buf[head]; }

    /** i-th element from the front (0 = front). */
    T &operator[](std::size_t i) { return buf[wrap(head + i)]; }
    const T &operator[](std::size_t i) const
    {
        return buf[wrap(head + i)];
    }

    void
    push_back(const T &v)
    {
        if (count == buf.size())
            grow(count ? count * 2 : 8);
        buf[wrap(head + count)] = v;
        ++count;
    }

    void
    pop_front()
    {
        head = wrap(head + 1);
        --count;
    }

    /**
     * Remove the i-th element, preserving the order of the rest. The
     * shorter side moves by one slot: the elements before i shift back
     * and the head advances, or the elements after i shift forward.
     * Used by the core's out-of-order issue and the DRAM FR-FCFS pick.
     */
    void
    erase(std::size_t i)
    {
        if (i < count / 2) {
            for (std::size_t k = i; k > 0; --k)
                (*this)[k] = (*this)[k - 1];
            head = wrap(head + 1);
        } else {
            for (std::size_t k = i; k + 1 < count; ++k)
                (*this)[k] = (*this)[k + 1];
        }
        --count;
    }

    void
    clear()
    {
        head = 0;
        count = 0;
    }

    template <bool Const>
    class Iter
    {
        using Owner =
            std::conditional_t<Const, const RingQueue, RingQueue>;

      public:
        using iterator_category = std::forward_iterator_tag;
        using value_type = T;
        using difference_type = std::ptrdiff_t;
        using reference = std::conditional_t<Const, const T &, T &>;
        using pointer = std::conditional_t<Const, const T *, T *>;

        Iter(Owner *owner, std::size_t index) : q(owner), i(index) {}

        reference operator*() const { return (*q)[i]; }
        pointer operator->() const { return &(*q)[i]; }
        Iter &operator++()
        {
            ++i;
            return *this;
        }
        bool operator==(const Iter &o) const { return i == o.i; }
        bool operator!=(const Iter &o) const { return i != o.i; }

      private:
        Owner *q;
        std::size_t i;
    };

    using iterator = Iter<false>;
    using const_iterator = Iter<true>;

    iterator begin() { return {this, 0}; }
    iterator end() { return {this, count}; }
    const_iterator begin() const { return {this, 0}; }
    const_iterator end() const { return {this, count}; }

  private:
    std::size_t wrap(std::size_t i) const { return i & (buf.size() - 1); }

    void
    grow(std::size_t at_least)
    {
        std::size_t cap = 8;
        while (cap < at_least)
            cap *= 2;
        std::vector<T> bigger(cap);
        for (std::size_t i = 0; i < count; ++i)
            bigger[i] = (*this)[i];
        buf.swap(bigger);
        head = 0;
    }

    std::vector<T> buf;       //!< power-of-two capacity (or empty)
    std::size_t head = 0;
    std::size_t count = 0;
};

} // namespace berti

#endif // BERTI_SIM_RING_HH
