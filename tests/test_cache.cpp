/** @file Cache-level unit tests: hits, misses, MSHRs, fills, prefetch
 *  queue semantics, writebacks, statistics, the tick gate and the MSHR
 *  line index. */

#include <algorithm>
#include <memory>

#include <gtest/gtest.h>

#include "mem/cache.hh"
#include "mem/multichannel.hh"
#include "prefetch/next_line.hh"
#include "sim/line_map.hh"
#include "sim/rng.hh"
#include "sim/serialize.hh"
#include "test_util.hh"
#include "verify/auditor.hh"
#include "vm/tlb.hh"

namespace berti
{

using test::RecordingPort;
using test::stepCycles;
using test::TestMemory;

namespace
{

struct CollectingClient : ReadClient
{
    std::vector<MemRequest> done;

    void readDone(const MemRequest &req) override { done.push_back(req); }
};

CacheConfig
smallConfig()
{
    CacheConfig cfg;
    cfg.name = "ut";
    cfg.level = 1;
    cfg.sets = 4;
    cfg.ways = 2;
    cfg.latency = 2;
    cfg.mshrs = 4;
    cfg.rqSize = 8;
    cfg.pqSize = 4;
    return cfg;
}

MemRequest
load(Addr p_line, ReadClient *client, Addr ip = 0x400000)
{
    MemRequest r;
    r.pLine = p_line;
    r.vLine = p_line;
    r.ip = ip;
    r.type = AccessType::Load;
    r.instrId = 1;
    r.client = client;
    return r;
}

} // namespace

struct CacheFixture : ::testing::Test
{
    Cycle clock = 0;
    Cache cache{smallConfig(), &clock};
    TestMemory mem{&clock, 50};
    CollectingClient client;

    void SetUp() override { cache.setLower(&mem); }

    void step(unsigned n) { stepCycles(clock, cache, mem, n); }
};

TEST_F(CacheFixture, MissFetchesFromBelowThenHits)
{
    ASSERT_TRUE(cache.submitRead(load(100, &client)));
    step(60);
    ASSERT_EQ(client.done.size(), 1u);
    EXPECT_TRUE(cache.probe(100));
    EXPECT_EQ(cache.stats.demandMisses, 1u);
    EXPECT_EQ(mem.reads, 1u);

    // Second access: hit, no new memory read.
    ASSERT_TRUE(cache.submitRead(load(100, &client)));
    step(5);
    EXPECT_EQ(client.done.size(), 2u);
    EXPECT_EQ(cache.stats.demandHits, 1u);
    EXPECT_EQ(mem.reads, 1u);
}

TEST_F(CacheFixture, HitRespectsLookupLatency)
{
    cache.submitRead(load(100, &client));
    step(60);
    client.done.clear();
    cache.submitRead(load(100, &client));
    step(1);
    EXPECT_TRUE(client.done.empty());  // latency 2 not yet elapsed
    step(3);
    EXPECT_EQ(client.done.size(), 1u);
}

TEST_F(CacheFixture, MshrMergesSameLine)
{
    cache.submitRead(load(200, &client));
    step(3);  // past lookup: MSHR allocated
    cache.submitRead(load(200, &client));
    cache.submitRead(load(200, &client));
    step(60);
    EXPECT_EQ(client.done.size(), 3u);   // all three wake
    EXPECT_EQ(mem.reads, 1u);            // one fetch below
    EXPECT_EQ(cache.stats.demandMshrMerged, 2u);
    EXPECT_EQ(cache.stats.demandMisses, 1u);  // miss counted once
}

TEST_F(CacheFixture, MshrExhaustionBlocksHeadOfLine)
{
    for (Addr a = 0; a < 4; ++a)
        cache.submitRead(load(a * 16, &client));
    step(4);
    EXPECT_EQ(cache.mshrsInUse(), 4u);
    cache.submitRead(load(999, &client));
    step(10);  // all MSHRs busy: request parks in the RQ
    EXPECT_EQ(cache.rqOccupancy(), 1u);
    step(150);  // fills free the MSHRs, the parked request proceeds
    EXPECT_EQ(client.done.size(), 5u);
}

TEST_F(CacheFixture, RqFullRefusesRequests)
{
    mem.refuseReads = true;  // nothing drains
    unsigned accepted = 0;
    for (Addr a = 0; a < 100; ++a)
        accepted += cache.submitRead(load(a * 16, &client)) ? 1 : 0;
    EXPECT_EQ(accepted, smallConfig().rqSize);
}

TEST_F(CacheFixture, RetryAfterLowerRefusal)
{
    mem.refuseReads = true;
    cache.submitRead(load(100, &client));
    step(10);
    EXPECT_EQ(mem.reads, 0u);
    mem.refuseReads = false;
    step(60);
    EXPECT_EQ(client.done.size(), 1u);  // retried and completed
}

TEST_F(CacheFixture, RfoMarksDirtyAndEvictionWritesBack)
{
    MemRequest store = load(300, nullptr);
    store.type = AccessType::Rfo;
    cache.submitRead(store);
    step(60);
    EXPECT_TRUE(cache.probeDirty(300));

    // Fill the same set (set index = line % 4) until 300 is evicted.
    // Lines 300+4k map to the same set; 2 ways.
    cache.submitRead(load(304, &client));
    cache.submitRead(load(308, &client));
    step(120);
    EXPECT_FALSE(cache.probe(300));
    EXPECT_EQ(mem.writebacks, 1u);
    EXPECT_EQ(mem.lastWriteback, 300u);
}

TEST_F(CacheFixture, CleanEvictionDoesNotWriteBack)
{
    cache.submitRead(load(300, &client));
    cache.submitRead(load(304, &client));
    cache.submitRead(load(308, &client));
    step(120);
    EXPECT_EQ(mem.writebacks, 0u);
}

TEST_F(CacheFixture, WritebackMissInstallsLine)
{
    cache.submitWriteback(400);
    step(5);
    EXPECT_TRUE(cache.probe(400));
    EXPECT_TRUE(cache.probeDirty(400));
    EXPECT_EQ(mem.reads, 0u);  // full-line write-allocate, no fetch
}

TEST_F(CacheFixture, WritebackHitSetsDirty)
{
    cache.submitRead(load(500, &client));
    step(60);
    EXPECT_FALSE(cache.probeDirty(500));
    cache.submitWriteback(500);
    step(3);
    EXPECT_TRUE(cache.probeDirty(500));
}

TEST_F(CacheFixture, PrefetchFillsAndUsefulCounting)
{
    ASSERT_TRUE(cache.issuePrefetch(600, FillLevel::L1));
    step(60);
    EXPECT_TRUE(cache.probe(600));
    EXPECT_EQ(cache.stats.prefetchFills, 1u);
    EXPECT_EQ(cache.stats.prefetchUseful, 0u);

    cache.submitRead(load(600, &client));
    step(5);
    EXPECT_EQ(cache.stats.prefetchUseful, 1u);

    // Second hit: useful is counted once.
    cache.submitRead(load(600, &client));
    step(5);
    EXPECT_EQ(cache.stats.prefetchUseful, 1u);
}

TEST_F(CacheFixture, LatePrefetchCountsWhenDemandMerges)
{
    cache.issuePrefetch(700, FillLevel::L1);
    step(4);  // prefetch MSHR allocated, fetch in flight
    cache.submitRead(load(700, &client));
    step(60);
    EXPECT_EQ(cache.stats.prefetchLate, 1u);
    EXPECT_EQ(cache.stats.prefetchUseful, 1u);
    EXPECT_EQ(client.done.size(), 1u);
}

TEST_F(CacheFixture, UselessPrefetchCountedOnEviction)
{
    cache.issuePrefetch(304, FillLevel::L1);  // set 0
    step(60);
    // Two demand fills push it out (2 ways).
    cache.submitRead(load(308, &client));
    cache.submitRead(load(312, &client));
    step(120);
    EXPECT_FALSE(cache.probe(304));
    EXPECT_EQ(cache.stats.prefetchUseless, 1u);
}

TEST_F(CacheFixture, PrefetchDedupInQueue)
{
    EXPECT_TRUE(cache.issuePrefetch(800, FillLevel::L1));
    EXPECT_TRUE(cache.issuePrefetch(800, FillLevel::L1));  // deduped
    EXPECT_EQ(cache.stats.prefetchIssued, 1u);
    EXPECT_EQ(cache.pqOccupancy(), 1u);
}

TEST_F(CacheFixture, PrefetchDedupEndsWhenTheEntryLeavesTheQueue)
{
    ASSERT_TRUE(cache.issuePrefetch(800, FillLevel::L1));
    ASSERT_TRUE(cache.issuePrefetch(801, FillLevel::L1));
    Cycle wake = cache.wakeCycle();
    ++clock;
    EXPECT_TRUE(cache.issuePrefetch(801, FillLevel::L1));  // not the head
    EXPECT_EQ(cache.pqOccupancy(), 2u);
    EXPECT_EQ(cache.stats.prefetchIssued, 2u);
    EXPECT_EQ(cache.wakeCycle(), wake);  // a duplicate wakes nothing

    // Once the head is handled, its line queues again; 801 still dedups.
    while (cache.pqOccupancy() == 2)
        step(1);
    EXPECT_TRUE(cache.issuePrefetch(800, FillLevel::L1));
    EXPECT_TRUE(cache.issuePrefetch(801, FillLevel::L1));
    EXPECT_EQ(cache.pqOccupancy(), 2u);
    EXPECT_EQ(cache.stats.prefetchIssued, 3u);
}

TEST_F(CacheFixture, CheckpointWithQueuedPrefetchesKeepsDedup)
{
    ASSERT_TRUE(cache.issuePrefetch(800, FillLevel::L1));
    ASSERT_TRUE(cache.issuePrefetch(804, FillLevel::L2));
    sim::PtrMap clients;
    clients.add(static_cast<ReadClient *>(&client));
    clients.add(static_cast<ReadClient *>(&cache));
    sim::ByteWriter first;
    cache.saveState(first, clients);

    Cache restored{smallConfig(), &clock};
    restored.setLower(&mem);
    sim::PtrMap restored_clients;
    restored_clients.add(static_cast<ReadClient *>(&client));
    restored_clients.add(static_cast<ReadClient *>(&restored));
    sim::ByteReader r(first.data(), "test");
    restored.loadState(r, restored_clients);
    sim::ByteWriter second;
    restored.saveState(second, restored_clients);
    EXPECT_EQ(first.data(), second.data());

    ASSERT_EQ(restored.pqOccupancy(), 2u);
    EXPECT_TRUE(restored.issuePrefetch(804, FillLevel::L2));
    EXPECT_EQ(restored.pqOccupancy(), 2u);
    EXPECT_EQ(restored.stats.prefetchIssued, 2u);
    EXPECT_TRUE(restored.issuePrefetch(808, FillLevel::L1));
    EXPECT_EQ(restored.pqOccupancy(), 3u);
}

TEST_F(CacheFixture, PrefetchQueueFullDrops)
{
    mem.refuseReads = true;
    for (Addr a = 0; a < 10; ++a)
        cache.issuePrefetch(900 + a * 16, FillLevel::L1);
    EXPECT_EQ(cache.stats.prefetchDroppedFull,
              10u - smallConfig().pqSize);
}

TEST_F(CacheFixture, PrefetchToPresentLineIsDropped)
{
    cache.submitRead(load(1000, &client));
    step(60);
    cache.issuePrefetch(1000, FillLevel::L1);
    step(5);
    EXPECT_EQ(cache.stats.prefetchFills, 0u);
    EXPECT_EQ(mem.reads, 1u);
}

TEST_F(CacheFixture, DeeperFillLevelPassesThrough)
{
    // An L2-targeted prefetch issued at an L1 cache must not fill here.
    cache.issuePrefetch(1100, FillLevel::L2);
    step(60);
    EXPECT_FALSE(cache.probe(1100));
    EXPECT_EQ(mem.reads, 1u);  // still forwarded below
    EXPECT_EQ(cache.stats.prefetchFills, 0u);
}

TEST_F(CacheFixture, MshrOccupancyReporting)
{
    EXPECT_DOUBLE_EQ(cache.mshrOccupancy(), 0.0);
    cache.submitRead(load(0, &client));
    cache.submitRead(load(16, &client));
    step(3);
    EXPECT_DOUBLE_EQ(cache.mshrOccupancy(), 0.5);
    step(60);
    EXPECT_DOUBLE_EQ(cache.mshrOccupancy(), 0.0);
}

TEST_F(CacheFixture, FastHitCountsAndMisses)
{
    EXPECT_FALSE(cache.fastHit(1200));
    cache.submitRead(load(1200, &client));
    step(60);
    std::uint64_t hits = cache.stats.demandHits;
    EXPECT_TRUE(cache.fastHit(1200));
    EXPECT_EQ(cache.stats.demandHits, hits + 1);
}

TEST_F(CacheFixture, FillLatencyMeasured)
{
    cache.submitRead(load(1300, &client));
    step(80);
    ASSERT_EQ(cache.stats.fillLatencyCount, 1u);
    // Lookup (2) + memory (50) plus queue slack.
    EXPECT_GE(cache.stats.avgFillLatency(), 50.0);
    EXPECT_LE(cache.stats.avgFillLatency(), 60.0);
}

// --------------------------------------------------------------------
// L1D-specific behaviour: virtual prefetching through the STLB.

struct L1dFixture : ::testing::Test
{
    Cycle clock = 0;
    CacheConfig cfg = [] {
        CacheConfig c = smallConfig();
        c.isL1d = true;
        return c;
    }();
    Cache cache{cfg, &clock};
    TestMemory mem{&clock, 50};
    TranslationUnit tu{TranslationUnit::Config{}};
    CollectingClient client;

    void SetUp() override
    {
        cache.setLower(&mem);
        cache.setTranslation(&tu);
    }

    void step(unsigned n) { stepCycles(clock, cache, mem, n); }
};

TEST_F(L1dFixture, PrefetchDroppedOnStlbMiss)
{
    // Page never demanded: the STLB cannot translate it.
    EXPECT_FALSE(cache.issuePrefetch(lineAddr(0x50000), FillLevel::L1));
    EXPECT_EQ(cache.stats.prefetchDroppedTlb, 1u);
}

TEST_F(L1dFixture, PrefetchTranslatesAfterDemandWalk)
{
    tu.translate(0x50000);  // demand walk installs the mapping
    EXPECT_TRUE(cache.issuePrefetch(lineAddr(0x50040), FillLevel::L1));
    step(60);
    EXPECT_TRUE(cache.probe(lineAddr(tu.translate(0x50040).paddr)));
}

TEST_F(L1dFixture, PrefetchDedupUsesTheVirtualLineAcrossACheckpoint)
{
    tu.translate(0x50000);  // demand walk installs the mapping
    Addr v_line = lineAddr(0x50040);
    Addr p_line = lineAddr(tu.translate(0x50040).paddr);
    ASSERT_NE(v_line, p_line);
    ASSERT_TRUE(cache.issuePrefetch(v_line, FillLevel::L1));
    EXPECT_TRUE(cache.issuePrefetch(v_line, FillLevel::L1));
    EXPECT_EQ(cache.pqOccupancy(), 1u);

    sim::PtrMap clients;
    clients.add(static_cast<ReadClient *>(&cache));
    sim::ByteWriter saved;
    cache.saveState(saved, clients);
    Cache restored{cfg, &clock};
    restored.setLower(&mem);
    restored.setTranslation(&tu);
    sim::PtrMap restored_clients;
    restored_clients.add(static_cast<ReadClient *>(&restored));
    sim::ByteReader r(saved.data(), "test");
    restored.loadState(r, restored_clients);

    // The rebuilt key ring still deduplicates by the virtual line.
    EXPECT_TRUE(restored.issuePrefetch(v_line, FillLevel::L1));
    EXPECT_EQ(restored.pqOccupancy(), 1u);
    EXPECT_EQ(restored.stats.prefetchIssued, 1u);
}

TEST_F(L1dFixture, PrefetchedLineCarriesLatencyToFirstHit)
{
    // Observed through the prefetcher hook: use a tiny spy prefetcher.
    struct Spy : Prefetcher
    {
        Cycle seen = 0;
        void
        onAccess(const AccessInfo &info) override
        {
            if (info.firstHitOnPrefetch)
                seen = info.prefetchLatency;
        }
        std::uint64_t storageBits() const override { return 0; }
        std::string name() const override { return "spy"; }
    };
    auto spy = std::make_unique<Spy>();
    Spy *spy_ptr = spy.get();
    cache.setPrefetcher(std::move(spy));

    tu.translate(0x60000);
    cache.issuePrefetch(lineAddr(0x60000), FillLevel::L1);
    step(80);

    MemRequest d = load(lineAddr(tu.translate(0x60000).paddr), &client);
    d.vLine = lineAddr(0x60000);
    cache.submitRead(d);
    step(5);
    EXPECT_GE(spy_ptr->seen, 50u);  // the memory latency was recorded
}

// --------------------------------------------------------------------
// Head-of-line parking and the lower level's admission hints.

namespace
{

/** Fill all four MSHRs with misses, then queue a fifth miss behind
 *  them, where it parks. */
void
blockHeadOnFullMshrs(CacheFixture &f, Addr blocked)
{
    for (Addr a = 0; a < 4; ++a)
        f.cache.submitRead(load(a * 16 + 1, &f.client));
    f.step(3);
    ASSERT_EQ(f.cache.mshrsInUse(), 4u);
    f.cache.submitRead(load(blocked, &f.client));
    f.step(3);  // the head has matured and found no MSHR
    ASSERT_EQ(f.cache.rqOccupancy(), 1u);
}

} // namespace

TEST_F(CacheFixture, HeadBlockedOnFullMshrsIsParkedUntilOneFrees)
{
    blockHeadOnFullMshrs(*this, 999);
    // Every miss is below and nothing else is queued: the parked head
    // is not due again, so the cache has no event of its own.
    EXPECT_EQ(cache.nextEventCycle(), kNever);

    // It is handled on the very cycle the first fill frees an MSHR.
    while (client.done.empty()) {
        EXPECT_EQ(mem.reads, 4u);
        EXPECT_EQ(cache.rqOccupancy(), 1u);
        step(1);
    }
    EXPECT_EQ(mem.reads, 5u);
    EXPECT_EQ(cache.rqOccupancy(), 0u);
    EXPECT_EQ(cache.stats.demandMisses, 5u);
}

TEST_F(CacheFixture, WriteAllocateOfParkedLineMakesItAHitThatCycle)
{
    blockHeadOnFullMshrs(*this, 999);
    EXPECT_EQ(cache.nextEventCycle(), kNever);

    // A dirty eviction from above installs the blocked line: the next
    // tick drains it and then serves the head as a hit, with no MSHR.
    cache.submitWriteback(999);
    EXPECT_EQ(cache.nextEventCycle(), clock + 1);
    step(1);
    ASSERT_EQ(client.done.size(), 1u);
    EXPECT_EQ(client.done[0].pLine, 999u);
    EXPECT_EQ(cache.stats.demandHits, 1u);
    EXPECT_EQ(cache.rqOccupancy(), 0u);
    EXPECT_EQ(mem.reads, 4u);
}

TEST_F(CacheFixture, FillOfAnotherLineLeavesTheHeadParked)
{
    blockHeadOnFullMshrs(*this, 999);
    cache.submitWriteback(998);  // installs a different line
    step(1);
    EXPECT_EQ(cache.rqOccupancy(), 1u);
    EXPECT_TRUE(client.done.empty());
    EXPECT_EQ(cache.nextEventCycle(), kNever);
}

namespace
{

/** Accepts reads while it has room; its hints report that room. */
struct GatedLevel : MemLevel
{
    unsigned room = 0;

    bool
    submitRead(MemRequest) override
    {
        if (room == 0)
            return false;
        --room;
        return true;
    }
    void submitWriteback(Addr) override {}
    bool mayAcceptRead(Addr) const override { return room > 0; }
    bool mayAcceptAnyRead() const override { return room > 0; }
};

/** Forwards everything to `inner`, counting submitRead calls and
 *  recording the lines it accepted, in order. */
struct CountingLevel : MemLevel
{
    explicit CountingLevel(MemLevel &inner) : inner(inner) {}

    bool
    submitRead(MemRequest req) override
    {
        ++calls;
        bool ok = inner.submitRead(req);
        if (ok)
            accepted.push_back(req.pLine);
        return ok;
    }
    void submitWriteback(Addr p_line) override
    {
        inner.submitWriteback(p_line);
    }
    bool mayAcceptRead(Addr p_line) const override
    {
        return inner.mayAcceptRead(p_line);
    }
    bool mayAcceptAnyRead() const override
    {
        return inner.mayAcceptAnyRead();
    }

    MemLevel &inner;
    unsigned calls = 0;
    std::vector<Addr> accepted;
};

CacheConfig
llcConfig()
{
    CacheConfig cfg = smallConfig();
    cfg.name = "llc";
    cfg.level = 3;
    cfg.mshrs = 8;
    cfg.rqSize = 16;
    return cfg;
}

/** Lines of the valid MSHRs not yet sent below, in MSHR index order. */
std::vector<Addr>
unsentInIndexOrder(const Cache &cache)
{
    std::vector<Addr> out;
    for (const Cache::MshrView &v : cache.mshrSnapshot()) {
        if (!v.sentBelow)
            out.push_back(v.pLine);
    }
    return out;
}

} // namespace

TEST(CacheParking, LlcPrefetchHeadParksOnFullMshrs)
{
    Cycle clock = 0;
    CacheConfig cfg = llcConfig();
    cfg.mshrs = 2;
    Cache llc{cfg, &clock};
    TestMemory mem{&clock, 50};
    llc.setLower(&mem);
    CollectingClient client;

    llc.submitRead(load(1, &client));
    llc.submitRead(load(2, &client));
    ASSERT_TRUE(llc.issuePrefetch(3, FillLevel::LLC));
    stepCycles(clock, llc, mem, 4);
    ASSERT_EQ(llc.mshrsInUse(), 2u);
    ASSERT_EQ(llc.pqOccupancy(), 1u);
    // The LLC cannot demote a prefetch further, so it waits, parked.
    EXPECT_EQ(llc.nextEventCycle(), kNever);

    while (client.done.empty())
        stepCycles(clock, llc, mem, 1);
    EXPECT_EQ(llc.pqOccupancy(), 0u);
    EXPECT_EQ(mem.reads, 3u);
}

TEST(CacheAdmissionHints, FullLowerLevelGetsNoRetriesAndResumesInIndexOrder)
{
    Cycle clock = 0;
    Cache llc{llcConfig(), &clock};
    GatedLevel gate;
    CountingLevel lower{gate};
    llc.setLower(&lower);
    CollectingClient client;
    auto run = [&](unsigned n) {
        for (unsigned i = 0; i < n; ++i) {
            ++clock;
            llc.tick();
        }
    };

    // Three misses go below; the first and third then complete, so the
    // free list hands out MSHRs 2, 0 and 3 next, in that order.
    gate.room = 3;
    for (Addr a : {Addr{40}, Addr{41}, Addr{42}})
        llc.submitRead(load(a, &client));
    run(4);
    ASSERT_EQ(lower.accepted, (std::vector<Addr>{40, 41, 42}));
    for (Addr a : {Addr{40}, Addr{42}}) {
        MemRequest fill = load(a, &llc);
        llc.readDone(fill);
    }

    // The lower level is now full: each new miss tries once when it is
    // allocated, then the level is never asked again while it says so.
    for (Addr a : {Addr{50}, Addr{51}, Addr{52}})
        llc.submitRead(load(a, &client));
    run(4);
    ASSERT_EQ(lower.calls, 6u);
    std::vector<Addr> unsent = unsentInIndexOrder(llc);
    ASSERT_EQ(unsent, (std::vector<Addr>{51, 50, 52}));  // MSHRs 0, 2, 3
    run(50);
    EXPECT_EQ(lower.calls, 6u);
    EXPECT_EQ(unsentInIndexOrder(llc), unsent);

    // Room for two: the first two in MSHR index order (not allocation
    // order) go, and the call that would be refused is never made.
    gate.room = 2;
    run(1);
    EXPECT_EQ(lower.calls, 8u);
    EXPECT_EQ(lower.accepted, (std::vector<Addr>{40, 41, 42, 51, 50}));
    EXPECT_EQ(unsentInIndexOrder(llc), (std::vector<Addr>{52}));
    EXPECT_EQ(llc.stats.requestsBelow, 5u);

    gate.room = 1;
    run(1);
    EXPECT_EQ(lower.calls, 9u);
    EXPECT_TRUE(unsentInIndexOrder(llc).empty());
}

TEST(CacheAdmissionHints, UnsentMshrsSleepUntilTheLowerLevelPops)
{
    Cycle clock = 0;
    DramConfig dcfg;
    dcfg.rqSize = 2;
    Dram dram{dcfg, &clock};
    Cache llc{llcConfig(), &clock};
    llc.setLower(&dram);
    CollectingClient client;

    // A full DRAM read queue refuses the miss when its MSHR is
    // allocated; the DRAM is not ticked yet, so it stays full.
    for (Addr a : {Addr{100}, Addr{101}}) {
        MemRequest r;
        r.pLine = a;
        ASSERT_TRUE(dram.submitRead(r));
    }
    llc.submitRead(load(10, &client));
    for (unsigned i = 0; i < 100 && llc.mshrsInUse() == 0; ++i) {
        ++clock;
        llc.tick();
    }
    ASSERT_EQ(unsentInIndexOrder(llc), (std::vector<Addr>{10}));

    // Its only work waits on room below: asleep, with no event.
    EXPECT_FALSE(llc.awake());
    EXPECT_EQ(llc.nextEventCycle(), kNever);
    EXPECT_EQ(llc.wakeCycle(), kNever);

    // It wakes in the very cycle the DRAM's tick pops its queue, and
    // one tick sends the miss.
    unsigned llc_ticks = 0;
    for (unsigned i = 0; i < 1000 && llc.stats.requestsBelow == 0; ++i) {
        ++clock;
        dram.tick();
        ASSERT_EQ(llc.awake(), dram.mayAcceptAnyRead()) << "cycle " << clock;
        if (llc.awake()) {
            llc.tick();
            ++llc_ticks;
        }
    }
    EXPECT_EQ(llc.stats.requestsBelow, 1u);
    EXPECT_EQ(llc_ticks, 1u);
    EXPECT_TRUE(unsentInIndexOrder(llc).empty());
}

TEST(CacheAdmissionHints, FullChannelDoesNotHoldBackTheOtherChannel)
{
    Cycle clock = 0;
    DramConfig dcfg;
    dcfg.rqSize = 2;
    mem::MultiChannelDram dram{dcfg, 2, &clock};  // even / odd lines
    CountingLevel lower{dram};
    Cache llc{llcConfig(), &clock};
    llc.setLower(&lower);
    CollectingClient client;

    // Both channels full of ownerless reads.
    for (Addr a : {Addr{100}, Addr{102}, Addr{101}, Addr{103}}) {
        MemRequest r;
        r.pLine = a;
        ASSERT_TRUE(dram.submitRead(r));
    }
    ASSERT_FALSE(dram.mayAcceptAnyRead());

    // Four misses, two per channel, all refused at allocation.
    for (Addr a : {Addr{10}, Addr{11}, Addr{12}, Addr{13}})
        llc.submitRead(load(a, &client));
    for (unsigned i = 0; i < 4; ++i) {
        ++clock;
        llc.tick();
    }
    ASSERT_EQ(unsentInIndexOrder(llc), (std::vector<Addr>{10, 11, 12, 13}));
    ASSERT_EQ(lower.calls, 4u);

    // One DRAM tick schedules a read on each channel; refill the even
    // one, so only the odd channel has room.
    ++clock;
    dram.tick();
    MemRequest top_up;
    top_up.pLine = 104;
    ASSERT_TRUE(dram.submitRead(top_up));
    EXPECT_FALSE(dram.mayAcceptRead(10));
    EXPECT_TRUE(dram.mayAcceptRead(11));
    EXPECT_TRUE(dram.mayAcceptAnyRead());

    // The odd-channel MSHR goes although even-channel MSHRs come first
    // in index order; nothing is offered to the full even channel.
    llc.tick();
    EXPECT_EQ(lower.accepted, (std::vector<Addr>{11}));
    EXPECT_EQ(lower.calls, 5u);
    EXPECT_EQ(unsentInIndexOrder(llc), (std::vector<Addr>{10, 12, 13}));
}

// ------------------------------------------- tick gate and MSHR index

namespace
{

/**
 * Lower level with a bounded queue that answers each read after a
 * seeded random delay, so fills come back out of order.
 */
struct ShuffledLevel : MemLevel
{
    ShuffledLevel(const Cycle *clock, std::uint64_t seed, unsigned room)
        : clock(clock), rng(seed), room(room)
    {}

    bool
    submitRead(MemRequest req) override
    {
        if (pending.size() >= room)
            return false;
        pending.push_back({*clock + 5 + rng.nextBounded(60), req});
        return true;
    }

    void submitWriteback(Addr) override { ++writebacks; }

    // Room appears only in tick(), which runs before the cache's.
    bool mayAcceptRead(Addr) const override { return pending.size() < room; }
    bool mayAcceptAnyRead() const override { return pending.size() < room; }

    /** Deliver every response that is due, oldest request first. */
    void
    tick()
    {
        for (std::size_t i = 0; i < pending.size();) {
            if (pending[i].first > *clock) {
                ++i;
                continue;
            }
            MemRequest req = pending[i].second;
            pending.erase(pending.begin() + static_cast<long>(i));
            if (req.client)
                req.client->readDone(req);
        }
    }

    const Cycle *clock;
    Rng rng;
    unsigned room;
    std::vector<std::pair<Cycle, MemRequest>> pending;
    std::uint64_t writebacks = 0;
};

/** An L2-like level with a next-line prefetcher, driven by hand. */
struct DrivenCache
{
    DrivenCache(const Cycle *clock, std::uint64_t seed)
        : cache(config(), clock), lower(clock, seed, 5)
    {
        cache.setLower(&lower);
        cache.setPrefetcher(std::make_unique<NextLinePrefetcher>());
        clients.add(static_cast<ReadClient *>(&client));
        clients.add(static_cast<ReadClient *>(&cache));
    }

    static CacheConfig
    config()
    {
        CacheConfig cfg = smallConfig();
        cfg.name = "l2-twin";
        cfg.level = 2;
        cfg.latency = 3;
        return cfg;
    }

    std::string
    bytes() const
    {
        sim::ByteWriter w;
        cache.saveState(w, clients);
        return w.take();
    }

    Cache cache;
    ShuffledLevel lower;
    CollectingClient client;
    sim::PtrMap clients;
};

} // namespace

namespace
{

/**
 * Two identical caches see the same inputs in the same order within
 * each cycle: fills from below before their turn, requests from above
 * after it. One is ticked every cycle, the other only while awake(),
 * which also sleeps through retries the full level below would refuse.
 * Their whole state must agree after every cycle.
 */
void
checkTwins(std::uint64_t seed)
{
    Cycle clock = 0;
    DrivenCache every(&clock, seed);
    DrivenCache gated(&clock, seed);
    Rng script(seed * 31 + 1);
    unsigned gated_ticks = 0;
    unsigned slept_unsent = 0;
    const unsigned cycles = 6000;
    for (unsigned c = 0; c < cycles; ++c) {
        ++clock;
        every.lower.tick();
        gated.lower.tick();
        every.cache.tick();
        if (gated.cache.awake()) {
            gated.cache.tick();
            ++gated_ticks;
        } else if (!unsentInIndexOrder(gated.cache).empty()) {
            ++slept_unsent;
        }

        // Bursts of requests from above, then quiet stretches in which
        // the gated cache drains and sleeps.
        if (c % 600 < 100 && script.nextBool(0.3)) {
            Addr line = 64 + script.nextBounded(48);
            unsigned kind = static_cast<unsigned>(script.nextBounded(8));
            for (DrivenCache *d : {&every, &gated}) {
                Cache &cache = d->cache;
                if (kind < 4) {
                    MemRequest r = load(line, &d->client);
                    if (kind == 3)
                        r.type = AccessType::Rfo;
                    cache.submitRead(r);
                } else if (kind < 6) {
                    cache.issuePrefetch(line, FillLevel::L2);
                } else if (kind == 6) {
                    cache.submitWriteback(line);
                } else {
                    MemRequest r = load(line, nullptr);
                    r.type = AccessType::Prefetch;
                    r.instrId = 0;
                    r.fillLevel = FillLevel::LLC;  // passes through
                    cache.submitRead(r);
                }
            }
        }
        ASSERT_EQ(every.bytes(), gated.bytes()) << "cycle " << clock;
        ASSERT_EQ(every.client.done.size(), gated.client.done.size());
    }
    EXPECT_GT(every.cache.stats.fills, 100u);
    EXPECT_GT(every.cache.stats.writebacks, 0u);
    EXPECT_GT(every.cache.stats.prefetchIssued, 100u);
    // The gate must actually have skipped most cycles, some of them
    // with retries waiting on room below.
    EXPECT_LT(gated_ticks, cycles / 2);
    EXPECT_GT(slept_unsent, 0u);
}

} // namespace

TEST(CacheTickGate, TickingOnlyWhenAwakeMatchesTickingEveryCycle)
{
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        checkTwins(seed);
        if (HasFatalFailure())
            return;
    }
}

TEST(CacheTickGate, EachInputWakesADrainedCache)
{
    Cycle clock = 0;
    CacheConfig cfg = smallConfig();
    cfg.level = 2;  // physical prefetches: no TLB needed
    Cache cache{cfg, &clock};
    TestMemory mem{&clock, 50};
    cache.setLower(&mem);
    CollectingClient client;
    // Tick while awake until the cache has no event of its own.
    auto drain = [&] {
        for (unsigned i = 0; i < 200 && cache.wakeCycle() != kNever; ++i) {
            ++clock;
            mem.tick();
            if (cache.wakeCycle() <= clock)
                cache.tick();
        }
        ASSERT_EQ(cache.wakeCycle(), kNever);
    };

    // A fresh cache is awake until its first tick.
    EXPECT_EQ(cache.wakeCycle(), 0u);
    drain();

    // A request wakes the cache for the cycle its lookup latency ends.
    ASSERT_TRUE(cache.submitRead(load(5, &client)));
    EXPECT_EQ(cache.wakeCycle(), clock + cfg.latency);
    drain();  // the miss is below; the cache sleeps until its fill
    ASSERT_EQ(cache.mshrsInUse(), 1u);
    ASSERT_TRUE(client.done.empty());

    while (!mem.pending.empty()) {
        ++clock;
        mem.tick();  // readDone arrives here
    }
    EXPECT_EQ(cache.wakeCycle(), clock);
    EXPECT_EQ(client.done.size(), 1u);  // the fill itself wakes waiters
    drain();

    cache.submitWriteback(9);
    EXPECT_LE(cache.wakeCycle(), clock);
    drain();
    EXPECT_TRUE(cache.probeDirty(9));

    ASSERT_TRUE(cache.issuePrefetch(13, FillLevel::L2));
    EXPECT_EQ(cache.wakeCycle(), clock + cfg.latency);
    drain();
    EXPECT_EQ(cache.mshrsInUse(), 1u);
}

TEST(LineMap, CollidingLinesChurnAgreesWithALinearScan)
{
    constexpr unsigned kSlots = 8;
    constexpr unsigned kNone = ~0u;
    LineMap<unsigned> index(kSlots);
    ASSERT_GE(index.buckets(), 2u * kSlots);

    // Lines whose probes start in the last bucket (their chains wrap
    // around) or in the first two, so every chain overlaps the others.
    std::vector<Addr> pool;
    unsigned at_last = 0, at_first = 0, at_second = 0;
    for (Addr line = 1; pool.size() < 24; ++line) {
        std::size_t h = index.home(line);
        if (h == index.buckets() - 1 && at_last < 10) {
            ++at_last;
            pool.push_back(line);
        } else if (h == 0 && at_first < 8) {
            ++at_first;
            pool.push_back(line);
        } else if (h == 1 && at_second < 6) {
            ++at_second;
            pool.push_back(line);
        }
    }

    // Reference: which line each slot holds, searched linearly.
    std::vector<Addr> slotLine(kSlots, kNoAddr);
    auto linearFind = [&](Addr line) {
        for (unsigned s = 0; s < kSlots; ++s) {
            if (slotLine[s] == line)
                return s;
        }
        return kNone;
    };
    auto indexFind = [&](Addr line) {
        const unsigned *slot = index.find(line);
        return slot ? *slot : kNone;
    };

    Rng rng(5);
    for (unsigned step = 0; step < 5000; ++step) {
        unsigned used = static_cast<unsigned>(
            std::count_if(slotLine.begin(), slotLine.end(),
                          [](Addr a) { return a != kNoAddr; }));
        Addr line = pool[rng.nextBounded(pool.size())];
        unsigned slot = linearFind(line);
        if (slot != kNone && used < kSlots && rng.nextBool(0.25)) {
            // Move the line to a free slot: assign updates in place.
            unsigned free_slot = linearFind(kNoAddr);
            index.assign(line, free_slot);
            slotLine[slot] = kNoAddr;
            slotLine[free_slot] = line;
        } else if (slot != kNone) {
            index.erase(line);
            slotLine[slot] = kNoAddr;
        } else if (used < kSlots) {
            unsigned free_slot = linearFind(kNoAddr);
            index.assign(line, free_slot);
            slotLine[free_slot] = line;
        }
        ASSERT_EQ(index.size(),
                  static_cast<std::size_t>(std::count_if(
                      slotLine.begin(), slotLine.end(),
                      [](Addr a) { return a != kNoAddr; })));
        for (Addr probe : pool)
            ASSERT_EQ(indexFind(probe), linearFind(probe))
                << "step " << step << " line " << probe;
    }

    index.clear();
    EXPECT_EQ(index.size(), 0u);
    for (Addr probe : pool)
        EXPECT_EQ(index.find(probe), nullptr);
}

TEST(CacheGeometry, ConsecutiveLinesLandInDistinctSets)
{
    // One way per set: `sets` consecutive lines all stay resident only
    // if line % sets picks the set, by modulo for 3 sets and by mask
    // for 4.
    for (unsigned sets : {3u, 4u}) {
        SCOPED_TRACE(std::to_string(sets) + " sets");
        Cycle clock = 0;
        CacheConfig cfg = smallConfig();
        cfg.sets = sets;
        cfg.ways = 1;
        Cache cache{cfg, &clock};
        TestMemory mem{&clock, 50};
        cache.setLower(&mem);
        const Addr base = 5 * sets + 1;
        for (Addr line = base; line < base + sets; ++line)
            cache.submitWriteback(line);  // write-allocates, no fetch
        stepCycles(clock, cache, mem, sets);
        for (Addr line = base; line < base + sets; ++line)
            EXPECT_TRUE(cache.probe(line)) << "line " << line;
        EXPECT_EQ(mem.writebacks, 0u);
    }
}

namespace
{

/** Random misses, writebacks and prefetches on a small audited cache,
 *  then a checkpoint round trip with misses in flight. */
void
churnAcrossACheckpoint(unsigned sets)
{
    Cycle clock = 0;
    CacheConfig cfg = smallConfig();  // 2 ways: the churn keeps missing
    cfg.name = "index-churn";
    cfg.sets = sets;
    cfg.mshrs = 8;
    cfg.rqSize = 16;
    Cache cache{cfg, &clock};
    ShuffledLevel lower{&clock, 3, 16};
    cache.setLower(&lower);
    CollectingClient client;

    // Lines that collide in this cache's index (same table geometry).
    LineMap<unsigned> shape(cfg.mshrs);
    std::vector<Addr> lines;
    for (Addr line = 1; lines.size() < 20; ++line) {
        if (shape.home(line) < 2)
            lines.push_back(line);
    }

    verify::AuditConfig acfg;
    acfg.enabled = true;
    verify::SimAuditor auditor(acfg, &clock);
    auditor.attach(&cache);

    // Random misses to the colliding lines, filled out of order, with
    // dirty evictions from above installing some of them mid-flight and
    // prefetches (deduplicated through the PQ key ring) in between.
    Rng rng(9);
    unsigned peak = 0;
    for (unsigned c = 0; c < 4000; ++c) {
        ++clock;
        lower.tick();
        cache.tick();
        Addr line = lines[rng.nextBounded(lines.size())];
        if (rng.nextBool(0.5))
            cache.submitRead(load(line, &client));
        else if (rng.nextBool(0.05))
            cache.submitWriteback(line);
        else if (rng.nextBool(0.3))
            cache.issuePrefetch(line, FillLevel::L1);
        peak = std::max(peak, static_cast<unsigned>(cache.mshrsInUse()));
        ASSERT_NO_THROW(auditor.checkNow()) << "cycle " << clock;
    }
    EXPECT_EQ(peak, cfg.mshrs);
    // Checkpoint with misses in flight: stop answering them.
    for (unsigned i = 0; i < 100 && cache.mshrsInUse() < 3; ++i) {
        ++clock;
        cache.tick();
        cache.submitRead(load(lines[i % lines.size()], &client));
    }
    ASSERT_GE(cache.mshrsInUse(), 3u);

    // save -> load -> save is byte-identical, and the restored cache
    // finds every in-flight miss through its rebuilt index.
    sim::PtrMap clients;
    clients.add(static_cast<ReadClient *>(&client));
    clients.add(static_cast<ReadClient *>(&cache));
    sim::ByteWriter first;
    cache.saveState(first, clients);

    Cache restored{cfg, &clock};
    restored.setLower(&lower);
    sim::PtrMap restored_clients;
    restored_clients.add(static_cast<ReadClient *>(&client));
    restored_clients.add(static_cast<ReadClient *>(&restored));
    sim::ByteReader r(first.data(), "test");
    restored.loadState(r, restored_clients);
    sim::ByteWriter second;
    restored.saveState(second, restored_clients);
    EXPECT_EQ(first.data(), second.data());

    verify::SimAuditor restored_auditor(acfg, &clock);
    restored_auditor.attach(&restored);
    EXPECT_NO_THROW(restored_auditor.checkNow());
    std::size_t woken = client.done.size();
    for (const Cache::MshrView &v : restored.mshrSnapshot()) {
        MemRequest fill = load(v.pLine, &restored);
        restored.readDone(fill);
    }
    EXPECT_EQ(restored.mshrsInUse(), 0u);
    EXPECT_GT(client.done.size(), woken);
    EXPECT_NO_THROW(restored_auditor.checkNow());
}

} // namespace

TEST(MshrIndex, CacheChurnKeepsTheIndexExactAcrossACheckpoint)
{
    // A 3-set cache finds a line's set by modulo, a 4-set one by mask.
    for (unsigned sets : {3u, 4u}) {
        SCOPED_TRACE(std::to_string(sets) + " sets");
        churnAcrossACheckpoint(sets);
    }
}

} // namespace berti
