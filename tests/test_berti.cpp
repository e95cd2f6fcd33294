/** @file Berti prefetcher unit tests: timely-delta learning (the paper's
 *  Figure 4 scenario), coverage phases, watermark statuses, warm-up,
 *  MSHR-occupancy routing, eviction policy, ablations, storage. */

#include <gtest/gtest.h>

#include "core/berti.hh"
#include "test_util.hh"

namespace berti
{

using test::RecordingPort;

namespace
{

constexpr Addr kIp = 0x400190;

/** Drive one "baseline miss" event: demand access at time t, fill at
 *  t + latency (paper: insert at access, search at fill). */
void
missEvent(BertiPrefetcher &b, RecordingPort &port, Addr ip, Addr line,
          Cycle access_time, Cycle latency)
{
    port.time = access_time;
    Prefetcher::AccessInfo a;
    a.ip = ip;
    a.vLine = line;
    a.pLine = line;
    a.hit = false;
    b.onAccess(a);

    port.time = access_time + latency;
    Prefetcher::FillInfo f;
    f.ip = ip;
    f.vLine = line;
    f.pLine = line;
    f.hadDemandWaiter = true;
    f.latency = latency;
    b.onFill(f);
    port.time = access_time;
}

/** Run a steady single-IP stream: line i at time i*interval. */
void
runStream(BertiPrefetcher &b, RecordingPort &port, unsigned count,
          Cycle interval, Cycle latency, Addr base = 1000, int stride = 1,
          Addr ip = kIp, Cycle t0 = 1000)
{
    for (unsigned i = 0; i < count; ++i) {
        missEvent(b, port, ip,
                  static_cast<Addr>(static_cast<std::int64_t>(base) +
                                    static_cast<std::int64_t>(i) * stride),
                  t0 + static_cast<Cycle>(i) * interval, latency);
    }
}

} // namespace

TEST(Berti, Figure4TimelyDeltaScenario)
{
    // The paper's Figure 4: one IP accesses lines 2, 5, 7, 10, 12, 15.
    // When line 12's latency is known, +10 (from line 2) is timely;
    // when 15 completes, +10 (from 5) and +13 (from 2) are timely.
    BertiPrefetcher b;
    RecordingPort port;
    b.bind(&port);

    const Cycle lat = 60;
    missEvent(b, port, kIp, 2, 100, lat);
    missEvent(b, port, kIp, 5, 130, lat);
    missEvent(b, port, kIp, 7, 150, lat);
    EXPECT_EQ(b.timelyDeltasFound, 0u);  // nothing old enough yet

    missEvent(b, port, kIp, 10, 165, lat);  // fill at 225: line 2 (age
                                            // 65 >= 60) qualifies: +8
    EXPECT_EQ(b.timelyDeltasFound, 1u);

    missEvent(b, port, kIp, 12, 175, lat);  // lines 2 (75), 5 (... 45) ->
                                            // only +10 timely
    EXPECT_EQ(b.timelyDeltasFound, 2u);

    missEvent(b, port, kIp, 15, 200, lat);  // 2 (100) and 5 (70): +13,+10
    EXPECT_EQ(b.timelyDeltasFound, 4u);

    auto deltas = b.deltasFor(kIp);
    bool saw10 = false, saw13 = false;
    for (const auto &d : deltas) {
        saw10 |= d.delta == 10;
        saw13 |= d.delta == 13;
    }
    EXPECT_TRUE(saw10);
    EXPECT_TRUE(saw13);
}

TEST(Berti, SearchOnlyOnBaselineMisses)
{
    BertiPrefetcher b;
    RecordingPort port;
    b.bind(&port);

    // A prefetch fill with no demand waiter must not trigger a search.
    Prefetcher::FillInfo f;
    f.ip = kIp;
    f.vLine = 100;
    f.pLine = 100;
    f.byPrefetch = true;
    f.hadDemandWaiter = false;
    f.latency = 60;
    b.onFill(f);
    EXPECT_EQ(b.historySearches, 0u);

    f.hadDemandWaiter = true;  // late prefetch: baseline miss
    b.onFill(f);
    EXPECT_EQ(b.historySearches, 1u);
}

TEST(Berti, ZeroLatencySkipsTraining)
{
    BertiPrefetcher b;
    RecordingPort port;
    b.bind(&port);
    Prefetcher::FillInfo f;
    f.ip = kIp;
    f.vLine = 100;
    f.pLine = 100;
    f.hadDemandWaiter = true;
    f.latency = 0;  // overflow marker
    b.onFill(f);
    EXPECT_EQ(b.historySearches, 0u);
}

TEST(Berti, LatencyCounterOverflowIgnored)
{
    BertiConfig cfg;
    cfg.latencyBits = 12;
    BertiPrefetcher b(cfg);
    RecordingPort port;
    b.bind(&port);
    Prefetcher::FillInfo f;
    f.ip = kIp;
    f.vLine = 100;
    f.pLine = 100;
    f.hadDemandWaiter = true;
    f.latency = 5000;  // > 4095: stored as zero, skipped
    b.onFill(f);
    EXPECT_EQ(b.historySearches, 0u);
}

TEST(Berti, WiderLatencyCounterAcceptsLongLatencies)
{
    BertiConfig cfg;
    cfg.latencyBits = 32;
    BertiPrefetcher b(cfg);
    RecordingPort port;
    b.bind(&port);
    Prefetcher::FillInfo f;
    f.ip = kIp;
    f.vLine = 100;
    f.pLine = 100;
    f.hadDemandWaiter = true;
    f.latency = 5000;
    port.time = 6000;
    b.onFill(f);
    EXPECT_EQ(b.historySearches, 1u);
}

TEST(Berti, SteadyStreamSelectsTimelyDeltasAsL1)
{
    BertiPrefetcher b;
    RecordingPort port;
    b.bind(&port);

    // Interval 40, latency 100: deltas >= ceil(100/40) = 3 are timely.
    runStream(b, port, 200, 40, 100);
    auto deltas = b.deltasFor(kIp);
    ASSERT_FALSE(deltas.empty());
    bool has_l1 = false;
    for (const auto &d : deltas) {
        if (d.status == BertiPrefetcher::DeltaStatus::L1Pref) {
            has_l1 = true;
            EXPECT_GE(d.delta, 3);  // only timely deltas get L1 status
        }
    }
    EXPECT_TRUE(has_l1);
}

TEST(Berti, PredictionIssuesSelectedDeltas)
{
    BertiPrefetcher b;
    RecordingPort port;
    b.bind(&port);
    runStream(b, port, 200, 40, 100);

    port.issues.clear();
    Prefetcher::AccessInfo a;
    a.ip = kIp;
    a.vLine = 5000;
    a.pLine = 5000;
    a.hit = true;  // prediction runs on every access, hits included
    b.onAccess(a);
    ASSERT_FALSE(port.issues.empty());
    for (const auto &i : port.issues)
        EXPECT_GT(i.line, 5000u);  // positive deltas from current line
}

TEST(Berti, MshrWatermarkDemotesToL2)
{
    BertiPrefetcher b;
    RecordingPort port;
    b.bind(&port);
    runStream(b, port, 200, 40, 100);

    Prefetcher::AccessInfo a;
    a.ip = kIp;
    a.vLine = 5000;
    a.pLine = 5000;
    a.hit = true;

    port.occupancy = 0.2;  // below the 70% watermark
    port.issues.clear();
    b.onAccess(a);
    bool any_l1 = false;
    for (const auto &i : port.issues)
        any_l1 |= i.level == FillLevel::L1;
    EXPECT_TRUE(any_l1);

    port.occupancy = 0.9;  // above the watermark: everything to L2
    port.issues.clear();
    a.vLine = 6000;
    b.onAccess(a);
    ASSERT_FALSE(port.issues.empty());
    for (const auto &i : port.issues)
        EXPECT_EQ(i.level, FillLevel::L2);
}

TEST(Berti, MediumCoverageGoesToL2)
{
    BertiPrefetcher b;
    RecordingPort port;
    b.bind(&port);

    // Alternate two streams under one IP so each delta covers ~50% of
    // the searches: below the 65% L1 watermark, above the 35% L2 one.
    Cycle t = 1000;
    for (unsigned i = 0; i < 300; ++i) {
        Addr line = (i % 2 == 0) ? 1000 + i : 500000 + 3 * i;
        missEvent(b, port, kIp, line, t, 100);
        t += 40;
    }
    auto deltas = b.deltasFor(kIp);
    bool any_l2 = false;
    for (const auto &d : deltas) {
        any_l2 |= d.status == BertiPrefetcher::DeltaStatus::L2Pref ||
                  d.status == BertiPrefetcher::DeltaStatus::L2PrefRepl;
        EXPECT_NE(d.status, BertiPrefetcher::DeltaStatus::L1Pref);
    }
    EXPECT_TRUE(any_l2);
}

TEST(Berti, WarmupRequiresMinimumSearches)
{
    BertiPrefetcher b;
    RecordingPort port;
    b.bind(&port);

    // Fewer than eight gathered deltas: no prefetches yet even though
    // the pattern is perfect.
    runStream(b, port, 6, 40, 100);
    std::size_t early = port.issues.size();
    EXPECT_EQ(early, 0u);

    // A dozen more searches gather >= 8 deltas (and close the first
    // phase), so issuing starts.
    runStream(b, port, 12, 40, 100, 1006, 1, kIp, 1240);
    EXPECT_GT(port.issues.size(), 0u);
}

TEST(Berti, CrossPageTogglable)
{
    BertiConfig cfg;
    cfg.crossPage = false;
    BertiPrefetcher b(cfg);
    RecordingPort port;
    b.bind(&port);
    runStream(b, port, 200, 40, 100);

    port.issues.clear();
    Addr near_page_end = (100 << (kPageBits - kLineBits)) + 62;
    Prefetcher::AccessInfo a;
    a.ip = kIp;
    a.vLine = near_page_end;
    a.pLine = near_page_end;
    a.hit = true;
    b.onAccess(a);
    for (const auto &i : port.issues) {
        EXPECT_EQ(i.line >> (kPageBits - kLineBits),
                  near_page_end >> (kPageBits - kLineBits));
    }

    BertiPrefetcher b2;  // default: cross-page allowed
    RecordingPort port2;
    b2.bind(&port2);
    runStream(b2, port2, 200, 40, 100);
    port2.issues.clear();
    b2.onAccess(a);
    bool crossed = false;
    for (const auto &i : port2.issues) {
        crossed |= (i.line >> (kPageBits - kLineBits)) !=
                   (near_page_end >> (kPageBits - kLineBits));
    }
    EXPECT_TRUE(crossed);
}

TEST(Berti, TrainsOnFirstHitOfPrefetchedLine)
{
    BertiPrefetcher b;
    RecordingPort port;
    b.bind(&port);

    // Build history via misses, then deliver a prefetched-line hit: it
    // must insert + search like a baseline miss.
    runStream(b, port, 20, 40, 100);
    std::uint64_t searches = b.historySearches;

    port.time = 10000;
    Prefetcher::AccessInfo a;
    a.ip = kIp;
    a.vLine = 1020;
    a.pLine = 1020;
    a.hit = true;
    a.firstHitOnPrefetch = true;
    a.prefetchLatency = 100;
    b.onAccess(a);
    EXPECT_EQ(b.historySearches, searches + 1);
}

TEST(Berti, MaxEightTimelyPerSearch)
{
    BertiConfig cfg;
    BertiPrefetcher b(cfg);
    RecordingPort port;
    b.bind(&port);

    // 15 old entries, then one access whose latency makes all of them
    // timely: only 8 (the youngest) may be collected.
    for (unsigned i = 0; i < 15; ++i)
        missEvent(b, port, kIp, 100 + i, 1000 + i * 10, 5);
    std::uint64_t before = b.timelyDeltasFound;
    missEvent(b, port, kIp, 200, 2000, 20);
    EXPECT_LE(b.timelyDeltasFound - before, 8u);
}

TEST(Berti, DistinctDeltasPerIp)
{
    BertiPrefetcher b;
    RecordingPort port;
    b.bind(&port);

    // Two IPs with different strides: per-IP (local) deltas must differ
    // (the core claim motivating Berti vs global-delta prefetchers).
    Cycle t = 1000;
    for (unsigned i = 0; i < 200; ++i) {
        missEvent(b, port, 0x400190, 1000 + i, t, 100);
        t += 20;
        missEvent(b, port, 0x500754, 900000 - 7 * i, t, 100);
        t += 20;
    }
    auto d1 = b.deltasFor(0x400190);
    auto d2 = b.deltasFor(0x500754);
    ASSERT_FALSE(d1.empty());
    ASSERT_FALSE(d2.empty());
    for (const auto &d : d1) {
        if (d.status != BertiPrefetcher::DeltaStatus::NoPref) {
            EXPECT_GT(d.delta, 0);
        }
    }
    for (const auto &d : d2) {
        if (d.status != BertiPrefetcher::DeltaStatus::NoPref) {
            EXPECT_LT(d.delta, 0);
        }
    }
}

TEST(Berti, DeltaMagnitudeBounded)
{
    BertiPrefetcher b;
    RecordingPort port;
    b.bind(&port);

    // Stride of 5000 lines exceeds the 13-bit signed delta range when
    // accumulated over two steps; singles (5000) fit, doubles do not.
    runStream(b, port, 100, 40, 100, 1000000, 5000);
    for (const auto &d : b.deltasFor(kIp)) {
        EXPECT_LE(d.delta, (1 << 12) - 1);
        EXPECT_GE(d.delta, -((1 << 12) - 1));
    }
}

TEST(Berti, StorageMatchesTableOne)
{
    BertiPrefetcher b;
    // Paper Table I: 2.55 KB total.
    double kb = static_cast<double>(b.storageBits()) / 8.0 / 1024.0;
    EXPECT_NEAR(kb, 2.55, 0.06);
}

TEST(Berti, StorageScalesWithConfig)
{
    BertiConfig big;
    big.historySets *= 2;
    big.deltaTableEntries *= 2;
    BertiPrefetcher base, doubled(big);
    EXPECT_GT(doubled.storageBits(), base.storageBits());
}

TEST(Berti, TimestampWraparound)
{
    BertiPrefetcher b;
    RecordingPort port;
    b.bind(&port);

    // Events straddling the 16-bit timestamp boundary must still match.
    Cycle base = (1ull << 16) - 200;
    for (unsigned i = 0; i < 20; ++i)
        missEvent(b, port, kIp, 1000 + i, base + i * 40, 100);
    EXPECT_GT(b.timelyDeltasFound, 0u);
}

TEST(Berti, HistoryCapacityLimitsIpTracking)
{
    // Hundreds of interleaved IPs (the CactuBSSN regime): per-IP history
    // is evicted before a timely window builds, so nothing is selected.
    BertiPrefetcher b;
    RecordingPort port;
    b.bind(&port);

    Cycle t = 1000;
    for (unsigned round = 0; round < 40; ++round) {
        for (unsigned ipi = 0; ipi < 320; ++ipi) {
            missEvent(b, port, 0x400000 + 4 * ipi,
                      100000ull * ipi + round, t, 100);
            t += 5;
        }
    }
    port.issues.clear();
    Prefetcher::AccessInfo a;
    a.ip = 0x400000;
    a.vLine = 50;
    a.pLine = 50;
    a.hit = true;
    b.onAccess(a);
    EXPECT_TRUE(port.issues.empty());
}

class BertiWatermarkSweep
    : public ::testing::TestWithParam<std::pair<double, double>>
{
};

TEST_P(BertiWatermarkSweep, StatusesRespectWatermarks)
{
    auto [l1_wm, l2_wm] = GetParam();
    BertiConfig cfg;
    cfg.l1Watermark = l1_wm;
    cfg.l2Watermark = l2_wm;
    BertiPrefetcher b(cfg);
    RecordingPort port;
    b.bind(&port);

    Cycle t = 1000;
    for (unsigned i = 0; i < 400; ++i) {
        Addr line = (i % 2 == 0) ? 1000 + i : 800000 + 3 * i;
        missEvent(b, port, kIp, line, t, 100);
        t += 40;
    }
    // ~50% coverage deltas: L1 only if the watermark admits them.
    auto deltas = b.deltasFor(kIp);
    for (const auto &d : deltas) {
        if (d.status == BertiPrefetcher::DeltaStatus::L1Pref) {
            EXPECT_LT(l1_wm, 0.55);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Watermarks, BertiWatermarkSweep,
    ::testing::Values(std::make_pair(0.65, 0.35),
                      std::make_pair(0.80, 0.50),
                      std::make_pair(0.35, 0.20),
                      std::make_pair(0.95, 0.65)));

class BertiSizeSweep : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(BertiSizeSweep, WorksAtEveryTableScale)
{
    unsigned scale = GetParam();
    BertiConfig cfg;
    cfg.historySets = std::max(1u, 8 * scale / 4);
    cfg.historyWays = 16;
    cfg.deltaTableEntries = std::max(1u, 16 * scale / 4);
    cfg.deltasPerEntry = std::max(1u, 16 * scale / 4);
    BertiPrefetcher b(cfg);
    RecordingPort port;
    b.bind(&port);
    runStream(b, port, 300, 40, 100);
    EXPECT_GT(b.historySearches, 0u);
    if (scale >= 4) {  // at 1x and above the stream pattern is learned
        EXPECT_FALSE(b.deltasFor(kIp).empty());
    }
}

INSTANTIATE_TEST_SUITE_P(Scales, BertiSizeSweep,
                         ::testing::Values(1u, 2u, 4u, 8u, 16u));

TEST(Berti, NoTimelinessAblationGathersShortDeltas)
{
    // With requireTimely off, even the freshest history entries yield
    // deltas, so short (untimely) deltas like +1 get selected.
    BertiConfig cfg;
    cfg.requireTimely = false;
    BertiPrefetcher b(cfg);
    RecordingPort port;
    b.bind(&port);
    runStream(b, port, 200, 40, 3000);  // latency >> any history age
    EXPECT_GT(b.timelyDeltasFound, 0u);

    BertiPrefetcher strict;  // default: nothing is timely here
    RecordingPort port2;
    strict.bind(&port2);
    runStream(strict, port2, 200, 40, 3000);
    EXPECT_EQ(strict.timelyDeltasFound, 0u);
}

TEST(Berti, NoSelectivityAblationFiresEverything)
{
    BertiConfig cfg;
    cfg.issueAllDeltas = true;
    BertiPrefetcher loose(cfg);
    RecordingPort pl;
    loose.bind(&pl);
    BertiPrefetcher strict;
    RecordingPort ps;
    strict.bind(&ps);

    // Noisy pattern: two interleaved streams -> ~50% coverage deltas.
    for (BertiPrefetcher *b : {&loose, &strict}) {
        RecordingPort &port = b == &loose ? pl : ps;
        Cycle t = 1000;
        for (unsigned i = 0; i < 300; ++i) {
            Addr line = (i % 2 == 0) ? 1000 + i : 700000 + 3 * i;
            missEvent(*b, port, kIp, line, t, 100);
            t += 40;
        }
    }
    // The unselective variant issues strictly more requests.
    EXPECT_GT(pl.issues.size(), ps.issues.size());
}

} // namespace berti
