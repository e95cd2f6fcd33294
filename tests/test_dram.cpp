/** @file DRAM controller tests: row-buffer timing, FR-FCFS, write drain,
 *  bandwidth configuration, the self-gated tick and checkpoint resume. */

#include <gtest/gtest.h>

#include "mem/dram.hh"
#include "sim/serialize.hh"

namespace berti
{

namespace
{

struct Sink : ReadClient
{
    std::vector<std::pair<Cycle, Addr>> done;
    const Cycle *clock = nullptr;

    void
    readDone(const MemRequest &req) override
    {
        done.push_back({*clock, req.pLine});
    }
};

MemRequest
read(Addr p_line, ReadClient *client)
{
    MemRequest r;
    r.pLine = p_line;
    r.type = AccessType::Load;
    r.client = client;
    return r;
}

constexpr Addr kLinesPerRow = 4096 / kLineSize;

} // namespace

struct DramFixture : ::testing::Test
{
    Cycle clock = 0;
    DramConfig cfg;
    Sink sink;

    void SetUp() override { sink.clock = &clock; }

    Cycle
    runOne(Dram &dram, Addr p_line)
    {
        dram.submitRead(read(p_line, &sink));
        std::size_t before = sink.done.size();
        while (sink.done.size() == before) {
            ++clock;
            dram.tick();
        }
        return sink.done.back().first;
    }
};

TEST_F(DramFixture, RowHitFasterThanRowConflict)
{
    Dram dram(cfg, &clock);
    Cycle t0 = clock;
    runOne(dram, 0);               // opens row 0 (cold: row miss)
    Cycle cold = clock - t0;

    t0 = clock;
    runOne(dram, 1);               // same row: hit
    Cycle hit = clock - t0;

    // Another row on the SAME bank: conflict (precharge + activate).
    t0 = clock;
    runOne(dram, cfg.banks * kLinesPerRow);
    Cycle conflict = clock - t0;

    EXPECT_LT(hit, cold);
    EXPECT_GT(conflict, hit + cfg.tRp);
    EXPECT_EQ(dram.stats.rowHits, 1u);
    EXPECT_EQ(dram.stats.rowMisses, 1u);
    EXPECT_EQ(dram.stats.rowConflicts, 1u);
}

TEST_F(DramFixture, ConsecutiveRowsHitDifferentBanks)
{
    Dram dram(cfg, &clock);
    runOne(dram, 0);
    runOne(dram, kLinesPerRow);  // next 4 KB row -> next bank
    EXPECT_EQ(dram.stats.rowConflicts, 0u);
}

TEST_F(DramFixture, FrFcfsPrefersOpenRow)
{
    Dram dram(cfg, &clock);
    runOne(dram, 0);  // open row 0 on bank 0

    // Enqueue: conflict request first, row hit second.
    dram.submitRead(read(cfg.banks * kLinesPerRow, &sink));
    dram.submitRead(read(1, &sink));
    while (sink.done.size() < 3) {
        ++clock;
        dram.tick();
    }
    // The row hit (line 1) must complete before the older conflict.
    EXPECT_EQ(sink.done[1].second, 1u);
}

TEST_F(DramFixture, RowHitsStreamAtBurstRate)
{
    Dram dram(cfg, &clock);
    runOne(dram, 0);
    // 16 row hits back to back.
    for (Addr i = 1; i <= 16; ++i)
        dram.submitRead(read(i, &sink));
    std::size_t first = sink.done.size();
    Cycle start = 0;
    while (sink.done.size() < first + 16) {
        ++clock;
        dram.tick();
        if (sink.done.size() == first + 1 && start == 0)
            start = clock;
    }
    double per_line = static_cast<double>(clock - start) / 15.0;
    EXPECT_LT(per_line, 2.0 * cfg.burstCycles());
}

TEST_F(DramFixture, WritesDrainEventually)
{
    Dram dram(cfg, &clock);
    for (Addr i = 0; i < 70; ++i)
        dram.submitWriteback(i);
    for (int i = 0; i < 20000 && dram.stats.writes < 70; ++i) {
        ++clock;
        dram.tick();
    }
    EXPECT_EQ(dram.stats.writes, 70u);
}

TEST_F(DramFixture, ReadsScheduledBeforePendingWrites)
{
    Dram dram(cfg, &clock);
    // A few writes below the watermark plus one read: the read is
    // *scheduled* first (writes may drain later while the bus idles).
    dram.submitWriteback(1000);
    dram.submitWriteback(2000);
    dram.submitRead(read(0, &sink));
    while (dram.stats.reads == 0) {
        ++clock;
        dram.tick();
    }
    EXPECT_EQ(dram.stats.writes, 0u);
}

TEST_F(DramFixture, RqFullRefuses)
{
    Dram dram(cfg, &clock);
    unsigned accepted = 0;
    for (Addr i = 0; i < 200; ++i)
        accepted += dram.submitRead(read(i * 64, &sink)) ? 1 : 0;
    EXPECT_EQ(accepted, cfg.rqSize);
}

TEST_F(DramFixture, LinkLatencyAddsToEveryRead)
{
    DramConfig fast = cfg;
    fast.linkLatency = 0;
    DramConfig slow = cfg;
    slow.linkLatency = 500;

    Cycle c1 = 0, c2 = 0;
    {
        Cycle local = 0;
        Sink s;
        s.clock = &local;
        Dram d(fast, &local);
        d.submitRead(read(0, &s));
        while (s.done.empty()) {
            ++local;
            d.tick();
        }
        c1 = local;
    }
    {
        Cycle local = 0;
        Sink s;
        s.clock = &local;
        Dram d(slow, &local);
        d.submitRead(read(0, &s));
        while (s.done.empty()) {
            ++local;
            d.tick();
        }
        c2 = local;
    }
    EXPECT_EQ(c2, c1 + 500);
}

class MtpsParam : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(MtpsParam, BurstCyclesMatchTransferRate)
{
    DramConfig cfg;
    cfg.mtps = GetParam();
    // 64 B at mtps MT/s on an 8 B bus, 4 GHz core clock.
    EXPECT_EQ(cfg.burstCycles(), 64ull * 4000 / (8ull * GetParam()));
}

INSTANTIATE_TEST_SUITE_P(DdrGenerations, MtpsParam,
                         ::testing::Values(1600u, 3200u, 6400u));

TEST(DramBandwidth, LowerMtpsIsSlowerUnderLoad)
{
    auto drain = [](unsigned mtps) {
        Cycle clock = 0;
        DramConfig cfg;
        cfg.mtps = mtps;
        Sink sink;
        sink.clock = &clock;
        Dram dram(cfg, &clock);
        Addr sent = 0;
        while (sink.done.size() < 500) {
            while (sent < 2000 && dram.submitRead(read(sent, &sink)))
                ++sent;
            ++clock;
            dram.tick();
        }
        return clock;
    };
    EXPECT_GT(drain(1600), drain(6400));
}

// ------------------------------------------------------ tick gate

namespace
{

std::string
dramBytes(const Dram &dram, Sink &sink)
{
    sim::PtrMap clients;
    clients.add(static_cast<ReadClient *>(&sink));
    sim::ByteWriter w;
    dram.saveState(w, clients);
    return w.take();
}

} // namespace

TEST_F(DramFixture, DrainedTickIsANoOpAndSubmitsWakeIt)
{
    Dram dram(cfg, &clock);
    EXPECT_EQ(dram.wakeCycle(), 0u);  // awake until its first tick
    runOne(dram, 0);
    auto drain = [&] {
        for (int i = 0; i < 1000 && dram.wakeCycle() != kNever; ++i) {
            ++clock;
            dram.tick();
        }
        ASSERT_EQ(dram.wakeCycle(), kNever);
        ASSERT_EQ(dram.nextEventCycle(), kNever);
    };
    drain();

    std::string idle = dramBytes(dram, sink);
    for (int i = 0; i < 500; ++i) {
        ++clock;
        dram.tick();
    }
    EXPECT_EQ(dramBytes(dram, sink), idle);

    ASSERT_TRUE(dram.submitRead(read(1, &sink)));
    EXPECT_EQ(dram.wakeCycle(), clock);
    ++clock;
    dram.tick();
    EXPECT_EQ(dram.stats.reads, 2u);  // scheduled on the next tick
    drain();
    EXPECT_EQ(sink.done.size(), 2u);

    dram.submitWriteback(7);
    EXPECT_EQ(dram.wakeCycle(), clock);
    drain();
    EXPECT_EQ(dram.stats.writes, 1u);
}

TEST_F(DramFixture, ResumeRebuildsTheRowKeys)
{
    // Row 0 is open; a row hit sits behind many reads to other rows.
    // A checkpoint taken before the scheduler sees them must resume to
    // the same picks (the deep hit first), completions and stats.
    auto setUp = [&](Dram &dram, Sink &s, Cycle &clk) {
        s.clock = &clk;
        dram.submitRead(read(0, &s));
        while (s.done.empty()) {
            ++clk;
            dram.tick();
        }
        for (Addr row = 1; row <= 24; ++row)
            dram.submitRead(read(row * kLinesPerRow + row % 4, &s));
        dram.submitRead(read(3, &s));  // open-row hit, 25 deep
        dram.submitWriteback(40 * kLinesPerRow);
    };
    auto finish = [](Dram &dram, Sink &s, Cycle &clk) {
        for (int i = 0; i < 20000 && s.done.size() < 26; ++i) {
            ++clk;
            dram.tick();
        }
        for (int i = 0; i < 2000; ++i) {
            ++clk;
            dram.tick();
        }
    };

    Cycle clk_a = 0;
    Sink sink_a;
    Dram uninterrupted(cfg, &clk_a);
    setUp(uninterrupted, sink_a, clk_a);

    Cycle clk_b = 0;
    Sink sink_b;
    std::string blob;
    {
        Dram before(cfg, &clk_b);
        setUp(before, sink_b, clk_b);
        blob = dramBytes(before, sink_b);
    }
    Dram resumed(cfg, &clk_b);
    sim::PtrMap clients;
    clients.add(static_cast<ReadClient *>(&sink_b));
    sim::ByteReader r(blob, "dram-test");
    resumed.loadState(r, clients);
    EXPECT_EQ(dramBytes(resumed, sink_b), blob);

    finish(uninterrupted, sink_a, clk_a);
    finish(resumed, sink_b, clk_b);
    ASSERT_EQ(sink_a.done.size(), 26u);
    EXPECT_EQ(sink_a.done[1].second, 3u);  // the deep hit went first
    EXPECT_EQ(sink_b.done, sink_a.done);
    EXPECT_EQ(dramBytes(resumed, sink_b),
              dramBytes(uninterrupted, sink_a));
    EXPECT_EQ(resumed.stats.rowHits, uninterrupted.stats.rowHits);
    EXPECT_EQ(resumed.stats.writes, 1u);
}

} // namespace berti
