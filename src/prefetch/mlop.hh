/**
 * @file
 * Multi-Lookahead Offset Prefetching (Shakerinava et al., DPC-3 third
 * place). Extends BOP by scoring every candidate offset at multiple
 * lookahead levels simultaneously over an access map, then issuing a
 * chain of prefetches — the best offset of each lookahead level — on
 * every access (the paper's configuration: 128-entry AMT, 500-access
 * update period, degree 16). Like BOP, its deltas are *global*.
 */

#ifndef BERTI_PREFETCH_MLOP_HH
#define BERTI_PREFETCH_MLOP_HH

#include <vector>

#include "prefetch/prefetcher.hh"
#include "sim/line_map.hh"

namespace berti
{

class MlopPrefetcher : public Prefetcher
{
  public:
    struct Config
    {
        int maxOffset = 16;          //!< candidates in [-16, 16] \ {0}
        unsigned lookaheads = 16;    //!< lookahead levels == max degree
        unsigned updatePeriod = 500; //!< accesses per scoring round
        unsigned historyWindow = 2048;  //!< access-map span (accesses)
        double selectFraction = 0.20;   //!< min score / period to select
    };

    MlopPrefetcher() : MlopPrefetcher(Config{}) {}
    explicit MlopPrefetcher(const Config &cfg);

    void onAccess(const AccessInfo &info) override;

    std::uint64_t storageBits() const override;
    std::string name() const override { return "mlop"; }

    /** Selected offset for a lookahead level (0 = none). For tests. */
    int offsetAt(unsigned lookahead) const;

  private:
    unsigned offsetSlot(int offset) const;

    Config cfg;
    std::vector<int> candidates;
    /**
     * hist[slot * (lookaheads + 1) + k]: this round's accesses that
     * candidate slot covered at every lookahead level below k, and at no
     * level from k up. The score of (slot, level) is the suffix sum of
     * k > level, taken only at round close.
     */
    std::vector<unsigned> hist;
    /** Best offset per lookahead level from the previous round. */
    std::vector<int> selected;

    /** Line -> index of its latest access within the window. */
    LineMap<std::uint64_t> lastAccess;
    /** Line of each of the last historyWindow accesses, a ring. */
    std::vector<Addr> window;
    std::size_t windowPos = 0;  //!< next slot (the oldest, once full)
    std::uint64_t accessIndex = 0;
    unsigned sinceUpdate = 0;
};

} // namespace berti

#endif // BERTI_PREFETCH_MLOP_HH
