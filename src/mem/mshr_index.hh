/**
 * @file
 * Hashed index from a line address to the MSHR slot tracking its miss,
 * so a cache finds an in-flight miss in O(1) instead of scanning every
 * MSHR entry on each miss and fill.
 *
 * Open addressing with linear probing over a power-of-two table at
 * least twice the MSHR count, so a probe always reaches an empty bucket
 * and chains stay short. Deletion shifts the rest of the chain back
 * instead of leaving tombstones, so lookups never degrade under
 * alloc/release churn. The table is sized once at construction: insert
 * and erase never allocate.
 */

#ifndef BERTI_MEM_MSHR_INDEX_HH
#define BERTI_MEM_MSHR_INDEX_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace berti
{

class MshrIndex
{
  public:
    /** find() result for a line with no entry. */
    static constexpr unsigned kNone = ~0u;

    /** Index for up to `entries` lines at once. */
    explicit MshrIndex(unsigned entries)
    {
        unsigned bits = 1;
        while ((std::size_t{1} << bits) < 2 * std::size_t{entries})
            ++bits;
        shift = 64 - bits;
        table.resize(std::size_t{1} << bits);
    }

    /** Slot of the entry for line, or kNone. */
    unsigned
    find(Addr line) const
    {
        for (std::size_t i = home(line);; i = next(i)) {
            const Bucket &b = table[i];
            if (b.slot == kNone || b.line == line)
                return b.slot;
        }
    }

    /** Add line -> slot. The line must not be present already. */
    void
    insert(Addr line, unsigned slot)
    {
        std::size_t i = home(line);
        while (table[i].slot != kNone)
            i = next(i);
        table[i] = {line, slot};
        ++used;
    }

    /** Remove line's entry, if any. */
    void
    erase(Addr line)
    {
        std::size_t hole = home(line);
        while (table[hole].slot != kNone && table[hole].line != line)
            hole = next(hole);
        if (table[hole].slot == kNone)
            return;
        // Backward shift: pull each later chain member whose home is not
        // between the hole and its bucket into the hole, so every entry
        // stays reachable from its home without crossing an empty bucket.
        for (std::size_t i = next(hole); table[i].slot != kNone;
             i = next(i)) {
            std::size_t mask = table.size() - 1;
            if (((i - home(table[i].line)) & mask) >= ((i - hole) & mask)) {
                table[hole] = table[i];
                hole = i;
            }
        }
        table[hole] = Bucket{};
        --used;
    }

    void
    clear()
    {
        std::fill(table.begin(), table.end(), Bucket{});
        used = 0;
    }

    /** Lines currently indexed. */
    std::size_t size() const { return used; }

    /** Table size in buckets (a power of two). */
    std::size_t buckets() const { return table.size(); }

    /** Bucket where line's probe starts (Fibonacci hashing). */
    std::size_t
    home(Addr line) const
    {
        return static_cast<std::size_t>(
            (line * 0x9E3779B97F4A7C15ull) >> shift);
    }

  private:
    struct Bucket
    {
        Addr line = kNoAddr;
        unsigned slot = kNone;  //!< kNone marks an empty bucket
    };

    std::size_t next(std::size_t i) const
    {
        return (i + 1) & (table.size() - 1);
    }

    std::vector<Bucket> table;
    unsigned shift = 63;
    std::size_t used = 0;
};

} // namespace berti

#endif // BERTI_MEM_MSHR_INDEX_HH
