#include "prefetch/mlop.hh"

#include <algorithm>
#include <bit>

#include "verify/sim_error.hh"

namespace berti
{

MlopPrefetcher::MlopPrefetcher(const Config &config)
    : cfg(config), zoneIndex(config.historyWindow),
      zonePool(std::make_unique_for_overwrite<Zone[]>(config.historyWindow)),
      window(config.historyWindow, kNoAddr)
{
    if (cfg.historyWindow >= (1u << 16)) {
        throw verify::SimError(verify::ErrorKind::Config, "mlop",
                               "historyWindow must be below 65536 "
                               "accesses (16-bit access stamps)");
    }
    freeZones.reserve(cfg.historyWindow);
    for (int o = -cfg.maxOffset; o <= cfg.maxOffset; ++o) {
        if (o != 0)
            candidates.push_back(o);
    }
    hist.assign(candidates.size() * (cfg.lookaheads + 1), 0);
    selected.assign(cfg.lookaheads, 0);
}

unsigned
MlopPrefetcher::offsetSlot(int offset) const
{
    // [-max..-1] -> [0..max-1], [1..max] -> [max..2max-1].
    return offset < 0
        ? static_cast<unsigned>(offset + cfg.maxOffset)
        : static_cast<unsigned>(offset + cfg.maxOffset - 1);
}

int
MlopPrefetcher::offsetAt(unsigned lookahead) const
{
    return lookahead < selected.size() ? selected[lookahead] : 0;
}

void
MlopPrefetcher::train(Addr line)
{
    // For each candidate offset d: if line - d was accessed t accesses
    // ago, offset d would have covered this access at any lookahead
    // level < t. Count it once, under min(t, lookaheads); round close
    // turns the counts into per-level scores. The bases line - d span
    // [lo, hi] (clipped at the ends of the address space, where no line
    // is ever accessed), so a few zone lookups find them all.
    const std::size_t row = cfg.lookaheads + 1;
    const auto now = static_cast<std::uint16_t>(accessIndex);
    const auto span = static_cast<Addr>(cfg.maxOffset);
    const Addr lo = line >= span ? line - span : 0;
    const Addr hi = line < kNoAddr - span ? line + span : kNoAddr - 1;
    for (Addr z = lo >> kZoneBits; z <= hi >> kZoneBits; ++z) {
        const unsigned *slot = zoneIndex.find(z);
        if (!slot)
            continue;
        const Zone &zone = zonePool[*slot];
        const Addr first = z << kZoneBits;
        ZoneMask bits = zone.present;
        if (first < lo)
            bits &= ~ZoneMask{0} << (lo - first);
        if (hi - first < kZoneLines - 1)
            bits &= ~ZoneMask{0} >> (kZoneLines - 1 - (hi - first));
        if (line >> kZoneBits == z)
            bits &= ~(ZoneMask{1} << (line - first));  // d = 0
        for (; bits != 0; bits &= bits - 1) {
            unsigned b = static_cast<unsigned>(std::countr_zero(bits));
            auto offset = static_cast<int>(
                static_cast<std::int64_t>(line - (first + b)));
            auto distance = static_cast<std::uint16_t>(now - zone.stamp[b]);
            ++hist[offsetSlot(offset) * row +
                   std::min<unsigned>(distance, cfg.lookaheads)];
        }
    }
}

void
MlopPrefetcher::expire(Addr line, std::uint16_t stamp)
{
    const unsigned *slot = zoneIndex.find(line >> kZoneBits);
    if (!slot)
        return;
    Zone &zone = zonePool[*slot];
    unsigned b = static_cast<unsigned>(line & (kZoneLines - 1));
    ZoneMask bit = ZoneMask{1} << b;
    if (!(zone.present & bit) || zone.stamp[b] != stamp)
        return;
    zone.present &= ~bit;
    if (zone.present == 0) {
        freeZones.push_back(*slot);
        zoneIndex.erase(line >> kZoneBits);
    }
}

void
MlopPrefetcher::record(Addr line)
{
    // At most historyWindow lines, so at most as many zones, are in the
    // map at once: the pool never runs dry.
    Addr z = line >> kZoneBits;
    unsigned slot = 0;
    if (const unsigned *found = zoneIndex.find(z)) {
        slot = *found;
    } else {
        if (freeZones.empty()) {
            slot = zonesTouched++;
        } else {
            slot = freeZones.back();
            freeZones.pop_back();
        }
        zonePool[slot].present = 0;
        zoneIndex.assign(z, slot);
    }
    Zone &zone = zonePool[slot];
    unsigned b = static_cast<unsigned>(line & (kZoneLines - 1));
    zone.present |= ZoneMask{1} << b;
    zone.stamp[b] = static_cast<std::uint16_t>(accessIndex);
}

void
MlopPrefetcher::onAccess(const AccessInfo &info)
{
    Addr line = info.vLine != kNoAddr ? info.vLine : info.pLine;
    if (line == kNoAddr)
        return;

    train(line);

    // Record this access. The access historyWindow ago leaves the
    // window, and its line leaves the map unless it was accessed since.
    if (!window.empty()) {
        Addr &oldest = window[windowPos];
        if (accessIndex >= window.size()) {
            expire(oldest, static_cast<std::uint16_t>(accessIndex -
                                                      window.size()));
        }
        record(line);
        oldest = line;
        if (++windowPos == window.size())
            windowPos = 0;
    }
    ++accessIndex;

    // --------------------------------------------------- round close
    if (++sinceUpdate >= cfg.updatePeriod) {
        sinceUpdate = 0;
        const std::size_t row = cfg.lookaheads + 1;
        // Suffix sums: hist[i * row + la + 1] becomes the score of
        // candidate i at lookahead level la.
        for (std::size_t i = 0; i < candidates.size(); ++i) {
            unsigned *h = &hist[i * row];
            for (unsigned k = cfg.lookaheads; k-- > 1;)
                h[k] += h[k + 1];
        }
        unsigned min_score = static_cast<unsigned>(
            cfg.selectFraction * cfg.updatePeriod);
        for (unsigned la = 0; la < cfg.lookaheads; ++la) {
            unsigned best_score = 0;
            int best_offset = 0;
            for (std::size_t i = 0; i < candidates.size(); ++i) {
                unsigned s = hist[i * row + la + 1];
                if (s > best_score) {
                    best_score = s;
                    best_offset = candidates[i];
                }
            }
            selected[la] = best_score >= min_score ? best_offset : 0;
        }
        std::fill(hist.begin(), hist.end(), 0);
    }

    // ------------------------------------------------------ prediction
    // Issue the selected offset of every lookahead level (MLOP issues
    // for the best delta of each lookahead regardless of confidence —
    // the low-accuracy behaviour the paper contrasts Berti against).
    for (unsigned la = 0; la < cfg.lookaheads; ++la) {
        if (selected[la] == 0)
            continue;
        Addr target = static_cast<Addr>(
            static_cast<std::int64_t>(line) + selected[la]);
        port->issuePrefetch(target, FillLevel::L1);
    }
}

std::uint64_t
MlopPrefetcher::storageBits() const
{
    // Access-map table modelled as 128 zone entries of 64-bit maps plus
    // 16-bit indices, plus the score matrix (10-bit counters).
    std::uint64_t amt_bits = 128ull * (64 + 16 + 16);
    std::uint64_t score_bits =
        static_cast<std::uint64_t>(candidates.size()) * cfg.lookaheads * 10;
    return amt_bits + score_bits + selected.size() * 8;
}

} // namespace berti
