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

#include <cstdint>
#include <memory>
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
        /** Access-map span in accesses; below 2^16 (else the
         *  constructor throws verify::SimError(ErrorKind::Config)). */
        unsigned historyWindow = 2048;
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
    /**
     * 32 consecutive lines of the access map: which of them are in the
     * window, and the low 16 bits of each one's latest access index. A
     * wrap-around difference of stamps is exact because a line in the
     * window was accessed fewer than historyWindow < 2^16 accesses ago.
     * Random access leaves about one line per zone, so the zone size
     * sets the pool's memory (68 bytes a zone) against the lookups per
     * access (three at the default maxOffset).
     */
    static constexpr unsigned kZoneBits = 5;
    static constexpr unsigned kZoneLines = 1u << kZoneBits;
    using ZoneMask = std::uint32_t;
    struct Zone
    {
        ZoneMask present;
        std::uint16_t stamp[kZoneLines];
    };

    unsigned offsetSlot(int offset) const;

    /** Count, per candidate, the window accesses this access would
     *  have covered (training). */
    void train(Addr line);

    /** Record the access to `line` at accessIndex. */
    void record(Addr line);

    /** Drop `line` from the map if its latest access is `stamp`. */
    void expire(Addr line, std::uint16_t stamp);

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

    /** Zone number (line >> kZoneBits) -> its slot in zonePool. */
    LineMap<unsigned> zoneIndex;
    /** historyWindow zones, enough for one line each; a slot's memory
     *  is touched only once it is first handed out. */
    std::unique_ptr<Zone[]> zonePool;
    std::vector<unsigned> freeZones;  //!< released slots, reused LIFO
    unsigned zonesTouched = 0;        //!< slots ever handed out
    /** Line of each of the last historyWindow accesses, a ring. */
    std::vector<Addr> window;
    std::size_t windowPos = 0;  //!< next slot (the oldest, once full)
    std::uint64_t accessIndex = 0;
    unsigned sinceUpdate = 0;
};

} // namespace berti

#endif // BERTI_PREFETCH_MLOP_HH
