/**
 * @file
 * Hashed map from a line address to a small value, for the hot-path
 * lookups that used to scan or use std::unordered_map: a cache finds the
 * MSHR slot tracking a miss, and MLOP finds the access-map zone holding
 * a line.
 *
 * Open addressing with linear probing over a power-of-two table at
 * least twice the most lines held at once, so a probe always reaches an
 * empty bucket and chains stay short. Deletion shifts the rest of the
 * chain back instead of leaving tombstones, so lookups never degrade
 * under insert/erase churn. The table is sized once at construction:
 * insert and erase never allocate. kNoAddr marks an empty bucket, so it
 * is never a key.
 */

#ifndef BERTI_SIM_LINE_MAP_HH
#define BERTI_SIM_LINE_MAP_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace berti
{

template <typename V>
class LineMap
{
  public:
    /** Map for up to `entries` lines at once. */
    explicit LineMap(std::size_t entries)
    {
        unsigned bits = 1;
        while ((std::size_t{1} << bits) < 2 * entries)
            ++bits;
        shift = 64 - bits;
        table.resize(std::size_t{1} << bits);
    }

    /** Value stored for line, or null. */
    const V *
    find(Addr line) const
    {
        for (std::size_t i = home(line);; i = next(i)) {
            const Bucket &b = table[i];
            if (b.line == kNoAddr)
                return nullptr;
            if (b.line == line)
                return &b.value;
        }
    }

    /** Set line's value, adding the line if it is absent. */
    void
    assign(Addr line, V value)
    {
        std::size_t i = home(line);
        while (table[i].line != kNoAddr && table[i].line != line)
            i = next(i);
        if (table[i].line == kNoAddr)
            ++used;
        table[i] = {line, value};
    }

    /** Remove line's entry, if any. */
    void
    erase(Addr line)
    {
        std::size_t hole = home(line);
        for (;; hole = next(hole)) {
            if (table[hole].line == kNoAddr)
                return;
            if (table[hole].line == line)
                break;
        }
        // Backward shift: pull each later chain member whose home is not
        // between the hole and its bucket into the hole, so every entry
        // stays reachable from its home without crossing an empty bucket.
        const std::size_t mask = table.size() - 1;
        for (std::size_t i = next(hole); table[i].line != kNoAddr;
             i = next(i)) {
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

    /** Lines currently held. */
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
        Addr line = kNoAddr;  //!< kNoAddr marks an empty bucket
        V value{};
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

#endif // BERTI_SIM_LINE_MAP_HH
