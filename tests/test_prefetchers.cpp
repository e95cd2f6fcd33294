/** @file Unit tests for the competitor prefetchers (IP-stride,
 *  next-line, BOP, MLOP, IPCP, VLDP, SPP, SPP-PPF, Bingo, MISB). */

#include <algorithm>
#include <deque>
#include <functional>
#include <unordered_map>

#include <gtest/gtest.h>

#include "prefetch/bingo.hh"
#include "prefetch/bop.hh"
#include "prefetch/ip_stride.hh"
#include "prefetch/ipcp.hh"
#include "prefetch/misb.hh"
#include "prefetch/mlop.hh"
#include "prefetch/next_line.hh"
#include "prefetch/ppf.hh"
#include "prefetch/spp.hh"
#include "prefetch/vldp.hh"
#include "sim/rng.hh"
#include "test_util.hh"

namespace berti
{

using test::RecordingPort;

namespace
{

Prefetcher::AccessInfo
access(Addr line, Addr ip = 0x400000, bool hit = false)
{
    Prefetcher::AccessInfo a;
    a.vLine = line;
    a.pLine = line;
    a.ip = ip;
    a.hit = hit;
    return a;
}

} // namespace

// ------------------------------------------------------------ IP-stride

TEST(IpStride, LearnsConstantStride)
{
    IpStridePrefetcher pf;
    RecordingPort port;
    pf.bind(&port);
    Addr base = 64 * 100;  // page-aligned region, room for prefetches
    for (unsigned i = 0; i < 5; ++i)
        pf.onAccess(access(base + 2 * i));
    EXPECT_TRUE(port.hasIssue(base + 8 + 2));
    EXPECT_TRUE(port.hasIssue(base + 8 + 4));
    EXPECT_TRUE(port.hasIssue(base + 8 + 6));
}

TEST(IpStride, NoConfidenceOnAlternatingStride)
{
    // The paper's lbm example: +1, +2, +1, +2 never gains confidence.
    IpStridePrefetcher pf;
    RecordingPort port;
    pf.bind(&port);
    Addr line = 64 * 100;
    for (unsigned i = 0; i < 40; ++i) {
        pf.onAccess(access(line));
        line += (i % 2 == 0) ? 1 : 2;
    }
    EXPECT_TRUE(port.issues.empty());
}

TEST(IpStride, StopsAtPageBoundary)
{
    IpStridePrefetcher pf;
    RecordingPort port;
    pf.bind(&port);
    Addr page_end = 64 * 100 + 61;
    for (unsigned i = 0; i < 6; ++i)
        pf.onAccess(access(page_end - 5 + i));
    for (const auto &i : port.issues)
        EXPECT_LT(i.line, 64u * 101);
}

TEST(IpStride, TracksIpsIndependently)
{
    IpStridePrefetcher pf;
    RecordingPort port;
    pf.bind(&port);
    for (unsigned i = 0; i < 6; ++i) {
        pf.onAccess(access(64 * 100 + i, 0x400000));       // stride +1
        pf.onAccess(access(64 * 300 + 60 - 3 * i, 0x500000));  // -3
    }
    EXPECT_TRUE(port.hasIssue(64 * 100 + 5 + 1));
    EXPECT_TRUE(port.hasIssue(64 * 300 + 60 - 15 - 3));
}

TEST(IpStride, SameLineAccessesAreNeutral)
{
    IpStridePrefetcher pf;
    RecordingPort port;
    pf.bind(&port);
    for (unsigned i = 0; i < 4; ++i) {
        pf.onAccess(access(6400 + i));
        pf.onAccess(access(6400 + i));  // duplicate (same line)
    }
    EXPECT_TRUE(port.hasIssue(6400 + 3 + 1));  // stride +1 still learned
}

// ------------------------------------------------------------ Next-line

TEST(NextLine, PrefetchesFollowingLines)
{
    NextLinePrefetcher pf(2);
    RecordingPort port;
    pf.bind(&port);
    pf.onAccess(access(500));
    EXPECT_TRUE(port.hasIssue(501));
    EXPECT_TRUE(port.hasIssue(502));
    EXPECT_EQ(pf.storageBits(), 0u);
}

// ------------------------------------------------------------------ BOP

TEST(Bop, LearnsPlantedOffset)
{
    BopPrefetcher pf;
    RecordingPort port;
    pf.bind(&port);

    // Feed accesses with a constant global stride of 8 lines; fills
    // arrive (simulated immediately) so the RR table sees bases.
    Addr line = 1000;
    for (unsigned i = 0; i < 4000; ++i) {
        pf.onAccess(access(line));
        Prefetcher::FillInfo f;
        f.vLine = line;
        f.pLine = line;
        pf.onFill(f);
        line += 8;
    }
    EXPECT_EQ(pf.bestOffset() % 8, 0);  // a multiple of the true stride
}

TEST(Bop, SingleGlobalOffsetForMixedIps)
{
    // BOP is IP-agnostic by construction: the learned offset is shared.
    BopPrefetcher pf;
    RecordingPort port;
    pf.bind(&port);
    pf.onAccess(access(100, 0x1));
    pf.onAccess(access(5000, 0x2));
    // Both issues use the same current offset.
    ASSERT_EQ(port.issues.size(), 2u);
    EXPECT_EQ(port.issues[0].line - 100, port.issues[1].line - 5000);
}

// ----------------------------------------------------------------- MLOP

TEST(Mlop, SelectsOffsetPerLookahead)
{
    MlopPrefetcher pf;
    RecordingPort port;
    pf.bind(&port);
    Addr line = 2000;
    for (unsigned i = 0; i < 1200; ++i) {
        pf.onAccess(access(line));
        line += 1;
    }
    // After at least one 500-access round, offset +1 dominates.
    bool any = false;
    for (unsigned la = 0; la < 16; ++la)
        any |= pf.offsetAt(la) == 1;
    EXPECT_TRUE(any);
}

TEST(Mlop, IssueVolumeBoundedByLookaheads)
{
    MlopPrefetcher pf;
    RecordingPort port;
    pf.bind(&port);
    Addr a = 10000, b = 900000;
    for (unsigned i = 0; i < 600; ++i) {
        pf.onAccess(access(a, 0x1));
        pf.onAccess(access(b, 0x2));
        a += 1;
        b -= 2;
    }
    // At most one issue per lookahead level per access.
    EXPECT_LE(port.issues.size(), 600u * 2 * 16);
}

TEST(Mlop, OffsetsTrackBothInterleavedStreams)
{
    // MLOP's offsets are global: with +1 and -2 streams interleaved the
    // selected offsets are pulled between the two patterns (the
    // mcf_s-782 failure mode of the paper, where Berti's per-IP deltas
    // stay clean).
    MlopPrefetcher pf;
    RecordingPort port;
    pf.bind(&port);
    Addr a = 10000, b = 900000;
    for (unsigned i = 0; i < 2000; ++i) {
        pf.onAccess(access(a, 0x1));
        pf.onAccess(access(b, 0x2));
        a += 1;
        b -= 2;
    }
    for (unsigned la = 0; la < 16; ++la) {
        int off = pf.offsetAt(la);
        EXPECT_TRUE(off == 0 || off % 1 == 0);
        EXPECT_LE(off, 16);
        EXPECT_GE(off, -16);
    }
}

namespace
{

/**
 * MLOP as first written: an unordered_map of last accesses expired
 * through a deque, and one score increment per covered lookahead level.
 * The reference the table-based MlopPrefetcher must match exactly.
 */
class RefMlop
{
  public:
    static constexpr unsigned kLookaheads = 16;
    static constexpr unsigned kUpdatePeriod = 500;
    static constexpr unsigned kWindow = 2048;

    explicit RefMlop(int max_offset)
    {
        for (int o = -max_offset; o <= max_offset; ++o) {
            if (o != 0)
                candidates.push_back(o);
        }
        scores.assign(candidates.size() * kLookaheads, 0);
        selected.assign(kLookaheads, 0);
    }

    void
    onAccess(Addr line, RecordingPort &port)
    {
        for (std::size_t i = 0; i < candidates.size(); ++i) {
            Addr base = static_cast<Addr>(
                static_cast<std::int64_t>(line) - candidates[i]);
            auto it = lastAccess.find(base);
            if (it == lastAccess.end())
                continue;
            std::uint64_t distance = accessIndex - it->second;
            unsigned max_la = static_cast<unsigned>(
                std::min<std::uint64_t>(distance, kLookaheads));
            for (unsigned la = 0; la < max_la; ++la)
                ++scores[i * kLookaheads + la];
        }
        lastAccess[line] = accessIndex;
        window.push_back(line);
        ++accessIndex;
        while (window.size() > kWindow) {
            Addr old = window.front();
            window.pop_front();
            auto it = lastAccess.find(old);
            if (it != lastAccess.end() &&
                it->second + kWindow < accessIndex) {
                lastAccess.erase(it);
            }
        }
        if (++sinceUpdate >= kUpdatePeriod) {
            sinceUpdate = 0;
            unsigned min_score =
                static_cast<unsigned>(0.20 * kUpdatePeriod);
            for (unsigned la = 0; la < kLookaheads; ++la) {
                unsigned best_score = 0;
                int best_offset = 0;
                for (std::size_t i = 0; i < candidates.size(); ++i) {
                    unsigned s = scores[i * kLookaheads + la];
                    if (s > best_score) {
                        best_score = s;
                        best_offset = candidates[i];
                    }
                }
                selected[la] = best_score >= min_score ? best_offset : 0;
            }
            std::fill(scores.begin(), scores.end(), 0);
        }
        for (unsigned la = 0; la < kLookaheads; ++la) {
            if (selected[la] == 0)
                continue;
            port.issuePrefetch(static_cast<Addr>(
                                   static_cast<std::int64_t>(line) +
                                   selected[la]),
                               FillLevel::L1);
        }
    }

    std::vector<int> selected;

  private:
    std::vector<int> candidates;
    std::vector<unsigned> scores;
    std::unordered_map<Addr, std::uint64_t> lastAccess;
    std::deque<Addr> window;
    std::uint64_t accessIndex = 0;
    unsigned sinceUpdate = 0;
};

} // namespace

TEST(Mlop, MatchesReferenceImplementation)
{
    constexpr unsigned kRounds = 24;  // 12,000 accesses: ~6 windows
    constexpr unsigned kAccesses = kRounds * RefMlop::kUpdatePeriod;

    // Each stream maps an access number to a line.
    Rng rng(42);
    std::vector<Addr> perm(RefMlop::kWindow);
    for (std::size_t i = 0; i < perm.size(); ++i)
        perm[i] = i;
    for (std::size_t i = perm.size(); i > 1; --i)
        std::swap(perm[i - 1], perm[rng.nextBounded(i)]);
    std::vector<Addr> random_lines(kAccesses);
    for (Addr &line : random_lines)
        line = 50000 + rng.nextBounded(3000);

    struct Stream
    {
        const char *name;
        std::function<Addr(unsigned)> line;
    };
    const std::vector<Stream> streams = {
        {"strided", [](unsigned i) { return Addr{1000} + 3 * Addr{i}; }},
        {"interleaved",
         [](unsigned i) {
             // +1, -2 and +5 streams, with a repeat every 7th access.
             unsigned n = i / 3;
             switch (i % 3) {
               case 0:
                 return Addr{10000} + n - (n % 7 == 0 ? 1 : 0);
               case 1:
                 return Addr{900000} - 2 * Addr{n};
               default:
                 return Addr{400000} + 5 * Addr{n};
             }
         }},
        {"random",
         [&random_lines](unsigned i) { return random_lines[i]; }},
        // Every line comes back exactly one window later (the same
        // line leaves and re-enters on one access), or one access
        // before or after the window boundary.
        {"revisit-after-2048",
         [&perm](unsigned i) { return Addr{70000} + perm[i % 2048]; }},
        {"revisit-after-2047",
         [&perm](unsigned i) { return Addr{70000} + perm[i % 2047]; }},
        {"revisit-after-2049",
         [&perm](unsigned i) {
             return Addr{70000} + 2 * perm[i % 2049 % 2048];
         }},
        // Candidate bases below line 0 (never accessed), and a +1
        // stride that crosses a zone boundary every 6 accesses.
        {"near-zero", [](unsigned i) { return Addr{i % 90}; }},
        {"zone-edges",
         [](unsigned i) {
             return 64 * (1 + Addr{i / 6 % 40}) + i % 6 - 3;
         }},
    };

    // The candidates span 33 lines at 16 (the default), up to three
    // 32-line zones, and 81 at 40, up to four.
    for (int max_offset : {16, 40}) {
        for (const Stream &stream : streams) {
            SCOPED_TRACE(std::string(stream.name) + " maxOffset " +
                         std::to_string(max_offset));
            MlopPrefetcher::Config cfg;
            cfg.maxOffset = max_offset;
            MlopPrefetcher pf(cfg);
            RecordingPort port;
            pf.bind(&port);
            RefMlop ref(max_offset);
            RecordingPort ref_port;
            bool selected_any = false;
            for (unsigned i = 0; i < kAccesses; ++i) {
                Addr line = stream.line(i);
                pf.onAccess(access(line));
                ref.onAccess(line, ref_port);
                if ((i + 1) % RefMlop::kUpdatePeriod != 0)
                    continue;
                for (unsigned la = 0; la < RefMlop::kLookaheads; ++la) {
                    ASSERT_EQ(pf.offsetAt(la), ref.selected[la])
                        << "access " << i << " level " << la;
                    selected_any |= ref.selected[la] != 0;
                }
                ASSERT_EQ(port.issues.size(), ref_port.issues.size())
                    << "access " << i;
            }
            EXPECT_TRUE(selected_any);
            for (std::size_t k = 0; k < ref_port.issues.size(); ++k) {
                ASSERT_EQ(port.issues[k].line, ref_port.issues[k].line)
                    << "issue " << k;
                ASSERT_EQ(port.issues[k].level, ref_port.issues[k].level)
                    << "issue " << k;
            }
        }
    }
}

// ----------------------------------------------------------------- IPCP

TEST(Ipcp, ClassifiesConstantStrideAndPrefetches)
{
    IpcpPrefetcher pf;
    RecordingPort port;
    pf.bind(&port);
    Addr base = 64 * 1000;
    for (unsigned i = 0; i < 8; ++i)
        pf.onAccess(access(base + 2 * i, 0x400100));
    EXPECT_EQ(pf.classOf(0x400100), "CS");
    EXPECT_TRUE(port.hasIssue(base + 14 + 2));
}

TEST(Ipcp, GlobalStreamClassOnDenseRegion)
{
    IpcpPrefetcher pf;
    RecordingPort port;
    pf.bind(&port);
    Addr base = 64 * 2000;
    // March through a page densely: region becomes a stream.
    for (unsigned i = 0; i < 40; ++i)
        pf.onAccess(access(base + i, 0x400200));
    EXPECT_EQ(pf.classOf(0x400200), "GS");
    // GS issues multi-line streams ahead.
    EXPECT_TRUE(port.hasIssue(base + 39 + 1));
    EXPECT_TRUE(port.hasIssue(base + 39 + 4));
}

TEST(Ipcp, CplxHandlesRepeatingDeltaPattern)
{
    IpcpPrefetcher pf;
    RecordingPort port;
    pf.bind(&port);
    // Deltas cycle +1,+2: CS never sticks; CPLX signature table should
    // eventually predict.
    Addr base = 64 * 3000;
    Addr line = base;
    bool phase = false;
    for (unsigned i = 0; i < 200; ++i) {
        pf.onAccess(access(line, 0x400300));
        line += phase ? 2 : 1;
        phase = !phase;
        if (line > base + 48)
            line = base;  // stay within one region
    }
    EXPECT_NE(pf.classOf(0x400300), "CS");
    EXPECT_FALSE(port.issues.empty());
}

// ----------------------------------------------------------------- VLDP

TEST(Vldp, PredictsRepeatingDeltaWithinPage)
{
    VldpPrefetcher pf;
    RecordingPort port;
    pf.bind(&port);
    Addr page = 77;
    Addr base = page << (kPageBits - kLineBits);
    for (unsigned i = 0; i < 20; ++i)
        pf.onAccess(access(base + 3 * (i % 20)));
    EXPECT_FALSE(port.issues.empty());
    for (const auto &i : port.issues) {
        EXPECT_EQ(i.line >> (kPageBits - kLineBits), page);
        EXPECT_EQ((i.line - base) % 3, 0u);
    }
}

TEST(Vldp, NewPageUsesLearnedTables)
{
    VldpPrefetcher pf;
    RecordingPort port;
    pf.bind(&port);
    // Train +2 pattern on one page.
    Addr base1 = 100ull << (kPageBits - kLineBits);
    for (unsigned i = 0; i < 30; ++i)
        pf.onAccess(access(base1 + 2 * (i % 30)));
    port.issues.clear();
    // A second page repeats the pattern: the DPTs predict immediately.
    Addr base2 = 200ull << (kPageBits - kLineBits);
    pf.onAccess(access(base2));
    pf.onAccess(access(base2 + 2));
    EXPECT_TRUE(port.hasIssue(base2 + 4));
}

// ------------------------------------------------------------------ SPP

TEST(Spp, LookaheadWalksSignaturePath)
{
    SppPrefetcher pf;
    RecordingPort port;
    pf.bind(&port);
    Addr base = 500ull << (kPageBits - kLineBits);
    for (unsigned i = 0; i < 40; ++i)
        pf.onAccess(access(base + i));
    EXPECT_FALSE(port.issues.empty());
    // Deep lookahead: more than one line ahead gets prefetched.
    Addr max_line = 0;
    for (const auto &i : port.issues)
        max_line = std::max(max_line, i.line);
    EXPECT_GT(max_line, base + 40);
}

TEST(Spp, StopsAtPageBoundary)
{
    SppPrefetcher pf;
    RecordingPort port;
    pf.bind(&port);
    Addr base = 600ull << (kPageBits - kLineBits);
    for (unsigned i = 0; i < 64; ++i)
        pf.onAccess(access(base + i));
    for (const auto &i : port.issues)
        EXPECT_EQ(i.line >> (kPageBits - kLineBits), 600u);
}

TEST(Spp, ConfidenceSplitsFillLevel)
{
    SppPrefetcher pf;
    RecordingPort port;
    pf.bind(&port);
    Addr base = 700ull << (kPageBits - kLineBits);
    for (unsigned i = 0; i < 60; ++i)
        pf.onAccess(access(base + i));
    bool saw_l2 = false;
    for (const auto &i : port.issues)
        saw_l2 |= i.level == FillLevel::L2;
    EXPECT_TRUE(saw_l2);
}

// -------------------------------------------------------------- SPP-PPF

TEST(SppPpf, NegativeTrainingSuppressesPrefetches)
{
    SppPpfPrefetcher pf;
    RecordingPort port;
    pf.bind(&port);
    Addr base = 800ull << (kPageBits - kLineBits);

    // Two accesses (offsets 0, 8) per fresh page: SPP learns the +8
    // delta and issues a candidate for offset 16, which is *never*
    // demanded — pure negative feedback for the filter.
    std::size_t early = 0, late = 0;
    for (unsigned round = 0; round < 60; ++round) {
        port.issues.clear();
        pf.onAccess(access(base + 64 * round + 0));
        pf.onAccess(access(base + 64 * round + 8));
        if (round >= 5 && round < 15)
            early += port.issues.size();
        if (round >= 50)
            late += port.issues.size();
        for (const auto &i : port.issues) {
            Prefetcher::FillInfo f;
            f.evictedPLine = i.line;
            f.evictedUnusedPrefetch = true;
            pf.onFill(f);
        }
    }
    // After persistent negative feedback the filter throttles: late
    // rounds issue no more than the early ones, trending to zero.
    EXPECT_LE(late, early);
}

TEST(SppPpf, DemandToRejectedCandidateTrainsUp)
{
    // The oscillation guard: rejecting a candidate that later gets
    // demanded must push the filter back toward issuing.
    SppPpfPrefetcher pf;
    RecordingPort port;
    pf.bind(&port);
    Addr base = 900ull << (kPageBits - kLineBits);
    std::size_t last_round = 0;
    for (unsigned round = 0; round < 20; ++round) {
        port.issues.clear();
        for (unsigned i = 0; i < 48; ++i)
            pf.onAccess(access(base + 64 * round + i));
        last_round = port.issues.size();
        // Mark useless; but the next round demands the candidates, so
        // reject-then-demand training keeps the filter issuing.
        for (const auto &i : port.issues) {
            Prefetcher::FillInfo f;
            f.evictedPLine = i.line;
            f.evictedUnusedPrefetch = true;
            pf.onFill(f);
        }
    }
    (void)last_round;
    // Across the conflicting feedback, the filter never deadlocks into
    // permanent silence: at least one of the last rounds issued.
    std::size_t issued_recently = last_round;
    port.issues.clear();
    for (unsigned i = 0; i < 48; ++i)
        pf.onAccess(access(base + 64 * 25 + i));
    issued_recently += port.issues.size();
    EXPECT_GT(issued_recently, 0u);
}

TEST(SppPpf, StorageExceedsPlainSpp)
{
    SppPrefetcher spp;
    SppPpfPrefetcher ppf;
    EXPECT_GT(ppf.storageBits(), spp.storageBits());
}

// ---------------------------------------------------------------- Bingo

TEST(Bingo, ReplaysRecordedFootprint)
{
    BingoPrefetcher pf;
    RecordingPort port;
    pf.bind(&port);

    // Touch a sparse footprint in many regions with the same trigger IP
    // and offset, forcing retirements into the PHT.
    for (unsigned r = 0; r < 70; ++r) {
        Addr base = (1000 + r) * 32ull;
        pf.onAccess(access(base + 0, 0x400400));
        pf.onAccess(access(base + 3, 0x400400));
        pf.onAccess(access(base + 7, 0x400400));
    }
    port.issues.clear();
    // A brand-new region triggered by the same IP+offset replays 3, 7.
    Addr base = 5000 * 32ull;
    pf.onAccess(access(base + 0, 0x400400));
    EXPECT_TRUE(port.hasIssue(base + 3));
    EXPECT_TRUE(port.hasIssue(base + 7));
}

TEST(Bingo, ShortEventFallback)
{
    BingoPrefetcher pf;
    RecordingPort port;
    pf.bind(&port);
    for (unsigned r = 0; r < 70; ++r) {
        Addr base = (2000 + r) * 32ull;
        pf.onAccess(access(base + 1, 0x400500));
        pf.onAccess(access(base + 5, 0x400500));
    }
    port.issues.clear();
    // Different trigger offset: the long event misses, the PC-only
    // event still matches and replays the footprint.
    Addr base = 7000 * 32ull;
    pf.onAccess(access(base + 9, 0x400500));
    EXPECT_FALSE(port.issues.empty());
}

// ----------------------------------------------------------------- MISB

TEST(Misb, ReplaysTemporalStream)
{
    MisbPrefetcher pf;
    RecordingPort port;
    pf.bind(&port);

    // An irregular but repeating address sequence (temporal pattern
    // with no spatial structure).
    const Addr seq[] = {901, 13, 5077, 220, 9999, 42};
    for (unsigned round = 0; round < 3; ++round) {
        for (Addr a : seq)
            pf.onAccess(access(a, 0x400600));
    }
    port.issues.clear();
    pf.onAccess(access(seq[0], 0x400600));
    EXPECT_TRUE(port.hasIssue(seq[1]));  // successor in structural space
}

TEST(Misb, BoundsItsMetadata)
{
    MisbPrefetcher::Config cfg;
    cfg.maxMappings = 64;
    MisbPrefetcher pf(cfg);
    RecordingPort port;
    pf.bind(&port);
    for (Addr a = 0; a < 10000; ++a)
        pf.onAccess(access(a * 17 % 99991, 0x400700));
    SUCCEED();  // bounded structures; the trim path executed
}

// ------------------------------------------------ cross-cutting checks

TEST(AllPrefetchers, ReportNamesAndStorage)
{
    std::vector<std::unique_ptr<Prefetcher>> all;
    all.push_back(std::make_unique<IpStridePrefetcher>());
    all.push_back(std::make_unique<NextLinePrefetcher>());
    all.push_back(std::make_unique<BopPrefetcher>());
    all.push_back(std::make_unique<MlopPrefetcher>());
    all.push_back(std::make_unique<IpcpPrefetcher>());
    all.push_back(std::make_unique<VldpPrefetcher>());
    all.push_back(std::make_unique<SppPrefetcher>());
    all.push_back(std::make_unique<SppPpfPrefetcher>());
    all.push_back(std::make_unique<BingoPrefetcher>());
    all.push_back(std::make_unique<MisbPrefetcher>());
    for (const auto &pf : all) {
        EXPECT_FALSE(pf->name().empty());
        if (pf->name() != "next-line") {
            EXPECT_GT(pf->storageBits(), 0u);
        }
    }
}

TEST(AllPrefetchers, SurviveRandomAccessStream)
{
    std::vector<std::unique_ptr<Prefetcher>> all;
    all.push_back(std::make_unique<IpStridePrefetcher>());
    all.push_back(std::make_unique<BopPrefetcher>());
    all.push_back(std::make_unique<MlopPrefetcher>());
    all.push_back(std::make_unique<IpcpPrefetcher>());
    all.push_back(std::make_unique<VldpPrefetcher>());
    all.push_back(std::make_unique<SppPpfPrefetcher>());
    all.push_back(std::make_unique<BingoPrefetcher>());
    all.push_back(std::make_unique<MisbPrefetcher>());

    RecordingPort port;
    std::uint64_t x = 0x12345;
    for (auto &pf : all) {
        pf->bind(&port);
        for (int i = 0; i < 5000; ++i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            pf->onAccess(access(x % (1u << 22), 0x400000 + (x % 64) * 4,
                                (x & 1) != 0));
        }
    }
    SUCCEED();
}

} // namespace berti
