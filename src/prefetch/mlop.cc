#include "prefetch/mlop.hh"

#include <algorithm>

namespace berti
{

MlopPrefetcher::MlopPrefetcher(const Config &config)
    : cfg(config), lastAccess(config.historyWindow),
      window(config.historyWindow, kNoAddr)
{
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
MlopPrefetcher::onAccess(const AccessInfo &info)
{
    Addr line = info.vLine != kNoAddr ? info.vLine : info.pLine;
    if (line == kNoAddr)
        return;

    // ------------------------------------------------------- training
    // For each candidate offset d: if line - d was accessed t accesses
    // ago, offset d would have covered this access at any lookahead
    // level < t. Count it once, under min(t, lookaheads); round close
    // turns the counts into per-level scores.
    const std::size_t row = cfg.lookaheads + 1;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
        Addr base = static_cast<Addr>(
            static_cast<std::int64_t>(line) - candidates[i]);
        const std::uint64_t *at = lastAccess.find(base);
        if (!at)
            continue;
        std::uint64_t distance = accessIndex - *at;
        ++hist[i * row +
               std::min<std::uint64_t>(distance, cfg.lookaheads)];
    }

    // Record this access. The access historyWindow ago leaves the
    // window, and its line leaves the map unless it was accessed since.
    if (!window.empty()) {
        Addr &oldest = window[windowPos];
        if (accessIndex >= window.size()) {
            const std::uint64_t *at = lastAccess.find(oldest);
            if (at && *at == accessIndex - window.size())
                lastAccess.erase(oldest);
        }
        lastAccess.assign(line, accessIndex);
        oldest = line;
        if (++windowPos == window.size())
            windowPos = 0;
    }
    ++accessIndex;

    // --------------------------------------------------- round close
    if (++sinceUpdate >= cfg.updatePeriod) {
        sinceUpdate = 0;
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
