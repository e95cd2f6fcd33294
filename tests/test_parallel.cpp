/** @file Parallel runner tests: the supervised matrix gives results
 *  bit-identical to serial runs across thread counts (BERTI_JOBS =
 *  1/2/8, with and without the invariant auditor), typed error
 *  propagation out of worker threads, ordering guarantees of the pool,
 *  and BERTI_JOBS parsing. */

#include <cstdlib>
#include <string>

#include <gtest/gtest.h>

#include "harness/experiment.hh"
#include "harness/parallel.hh"
#include "test_util.hh"
#include "verify/sim_error.hh"

namespace berti
{

namespace
{

/** Scoped BERTI_JOBS override, restored on destruction so tests do not
 *  leak environment into each other. */
class ScopedJobsEnv
{
  public:
    explicit ScopedJobsEnv(const char *value)
    {
        if (const char *old = std::getenv("BERTI_JOBS")) {
            hadOld = true;
            oldValue = old;
        }
        if (value)
            setenv("BERTI_JOBS", value, 1);
        else
            unsetenv("BERTI_JOBS");
    }

    ~ScopedJobsEnv()
    {
        if (hadOld)
            setenv("BERTI_JOBS", oldValue.c_str(), 1);
        else
            unsetenv("BERTI_JOBS");
    }

  private:
    bool hadOld = false;
    std::string oldValue;
};

void
expectSameCache(const CacheStats &a, const CacheStats &b,
                const std::string &where)
{
    EXPECT_EQ(a.demandAccesses, b.demandAccesses) << where;
    EXPECT_EQ(a.demandHits, b.demandHits) << where;
    EXPECT_EQ(a.demandMisses, b.demandMisses) << where;
    EXPECT_EQ(a.demandMshrMerged, b.demandMshrMerged) << where;
    EXPECT_EQ(a.prefetchIssued, b.prefetchIssued) << where;
    EXPECT_EQ(a.prefetchFills, b.prefetchFills) << where;
    EXPECT_EQ(a.prefetchUseful, b.prefetchUseful) << where;
    EXPECT_EQ(a.prefetchUseless, b.prefetchUseless) << where;
    EXPECT_EQ(a.prefetchLate, b.prefetchLate) << where;
    EXPECT_EQ(a.prefetchDroppedFull, b.prefetchDroppedFull) << where;
    EXPECT_EQ(a.prefetchDroppedTlb, b.prefetchDroppedTlb) << where;
    EXPECT_EQ(a.prefetchDroppedPage, b.prefetchDroppedPage) << where;
    EXPECT_EQ(a.writebacks, b.writebacks) << where;
    EXPECT_EQ(a.fills, b.fills) << where;
    EXPECT_EQ(a.requestsBelow, b.requestsBelow) << where;
    EXPECT_EQ(a.fillLatencySum, b.fillLatencySum) << where;
    EXPECT_EQ(a.fillLatencyCount, b.fillLatencyCount) << where;
    EXPECT_EQ(a.tagReads, b.tagReads) << where;
    EXPECT_EQ(a.tagWrites, b.tagWrites) << where;
    EXPECT_EQ(a.dataReads, b.dataReads) << where;
    EXPECT_EQ(a.dataWrites, b.dataWrites) << where;
}

void
expectSameResult(const SimResult &a, const SimResult &b,
                 const std::string &where)
{
    EXPECT_EQ(a.roi.core.instructions, b.roi.core.instructions) << where;
    EXPECT_EQ(a.roi.core.cycles, b.roi.core.cycles) << where;
    EXPECT_EQ(a.roi.core.loads, b.roi.core.loads) << where;
    EXPECT_EQ(a.roi.core.stores, b.roi.core.stores) << where;
    EXPECT_EQ(a.roi.core.branches, b.roi.core.branches) << where;
    EXPECT_EQ(a.roi.core.mispredicts, b.roi.core.mispredicts) << where;
    expectSameCache(a.roi.l1i, b.roi.l1i, where + "/l1i");
    expectSameCache(a.roi.l1d, b.roi.l1d, where + "/l1d");
    expectSameCache(a.roi.l2, b.roi.l2, where + "/l2");
    expectSameCache(a.roi.llc, b.roi.llc, where + "/llc");
    EXPECT_EQ(a.roi.dtlb.accesses, b.roi.dtlb.accesses) << where;
    EXPECT_EQ(a.roi.dtlb.misses, b.roi.dtlb.misses) << where;
    EXPECT_EQ(a.roi.stlb.accesses, b.roi.stlb.accesses) << where;
    EXPECT_EQ(a.roi.stlb.misses, b.roi.stlb.misses) << where;
    EXPECT_EQ(a.roi.dram.reads, b.roi.dram.reads) << where;
    EXPECT_EQ(a.roi.dram.writes, b.roi.dram.writes) << where;
    EXPECT_EQ(a.roi.dram.rowHits, b.roi.dram.rowHits) << where;
    EXPECT_EQ(a.roi.dram.rowMisses, b.roi.dram.rowMisses) << where;
    EXPECT_EQ(a.ipc, b.ipc) << where;
    EXPECT_EQ(a.energy.total(), b.energy.total()) << where;
}

std::vector<Workload>
smallSuite()
{
    return {findWorkload("stream-like.1"), findWorkload("gcc-like.2226"),
            findWorkload("mcf-like.1554"),
            findWorkload("deepsjeng-like.1378"),
            findWorkload("bwaves-like.1740")};
}

SimParams
smallParams()
{
    SimParams p;
    p.warmupInstructions = 3000;
    p.measureInstructions = 12000;
    return p;
}

} // namespace

TEST(ParallelSuite, BitIdenticalToSerialAcrossJobCounts)
{
    auto workloads = smallSuite();
    SimParams p = smallParams();
    PrefetcherSpec spec = makeSpec("berti");

    auto serial = runSuite(workloads, spec, p);
    for (unsigned jobs : {1u, 2u, 8u}) {
        auto par = test::supervisedGrid(workloads, {spec}, p, jobs)[0];
        ASSERT_EQ(par.size(), serial.size());
        for (std::size_t i = 0; i < serial.size(); ++i) {
            expectSameResult(serial[i], par[i],
                             workloads[i].name + "@jobs=" +
                                 std::to_string(jobs));
        }
    }
}

TEST(ParallelSuite, HonoursBertiJobsEnvironment)
{
    auto workloads = smallSuite();
    SimParams p = smallParams();
    PrefetcherSpec spec = makeSpec("ip-stride");

    auto serial = runSuite(workloads, spec, p);
    ScopedJobsEnv env("2");
    auto par = test::supervisedGrid(workloads, {spec}, p, 0)[0];  // env
    ASSERT_EQ(par.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        expectSameResult(serial[i], par[i], workloads[i].name + "@env=2");
}

TEST(ParallelSuite, BitIdenticalUnderInvariantAuditor)
{
    std::vector<Workload> workloads = {findWorkload("stream-like.1"),
                                       findWorkload("gcc-like.2226")};
    SimParams p = smallParams();
    p.forceAudit = true;  // same auditing the BERTI_VERIFY=1 CI runs use
    PrefetcherSpec spec = makeSpec("berti");

    auto serial = runSuite(workloads, spec, p);
    auto par = test::supervisedGrid(workloads, {spec}, p, 4)[0];
    ASSERT_EQ(par.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        expectSameResult(serial[i], par[i], workloads[i].name + "@audit");
}

TEST(ParallelMatrix, BitIdenticalToSerialAndOrdered)
{
    std::vector<Workload> workloads = {findWorkload("stream-like.1"),
                                       findWorkload("mcf-like.1554"),
                                       findWorkload("gcc-like.2226")};
    SimParams p = smallParams();
    std::vector<PrefetcherSpec> specs = {makeSpec("ip-stride"),
                                         makeSpec("berti")};

    auto grid = test::supervisedGrid(workloads, specs, p, 4);
    ASSERT_EQ(grid.size(), specs.size());
    for (std::size_t s = 0; s < specs.size(); ++s) {
        ASSERT_EQ(grid[s].size(), workloads.size());
        auto serial = runSuite(workloads, specs[s], p);
        for (std::size_t w = 0; w < workloads.size(); ++w) {
            expectSameResult(serial[w], grid[s][w],
                             specs[s].name + "/" + workloads[w].name);
        }
    }
}

TEST(ParallelSuite, ConcurrentSharedGraphBuildIsSafeAndIdentical)
{
    // GAP kernels over two graphs, interleaved: on first use the workers
    // race to build the registry's shared "urand" and "road" Csrs, both
    // the same graph (one builds, the rest wait on its latch) and two
    // different ones (built at the same time). Parallel runs first so
    // the builds happen under contention (TSan covers this test in CI).
    std::vector<Workload> workloads = {
        findWorkload("bfs-urand"), findWorkload("bfs-road"),
        findWorkload("pr-urand"),  findWorkload("pr-road"),
        findWorkload("cc-urand"),  findWorkload("sssp-road")};
    SimParams p;
    p.warmupInstructions = 2000;
    p.measureInstructions = 8000;
    PrefetcherSpec spec = makeSpec("ip-stride");

    auto par = test::supervisedGrid(workloads, {spec}, p, 4)[0];
    auto serial = runSuite(workloads, spec, p);
    ASSERT_EQ(par.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        expectSameResult(serial[i], par[i], workloads[i].name + "@graph");
}

TEST(Parallel, WorkerSimErrorPropagatesTyped)
{
    std::vector<Workload> workloads = {findWorkload("stream-like.1"),
                                       findWorkload("gcc-like.2226")};
    SimParams p = smallParams();

    PrefetcherSpec bad;
    bad.name = "boom";
    bad.l1d = []() -> std::unique_ptr<Prefetcher> {
        throw verify::SimError(verify::ErrorKind::Config, "test-factory",
                               "injected worker failure");
    };
    try {
        test::supervisedGrid(workloads, {bad}, p, 2);
        FAIL() << "expected verify::SimError";
    } catch (const verify::SimError &e) {
        EXPECT_EQ(e.kind(), verify::ErrorKind::Config);
        EXPECT_EQ(e.component(), "test-factory");
        EXPECT_NE(e.reason().find("injected"), std::string::npos);
    }
}

TEST(Parallel, FirstFailureByInputOrderWins)
{
    // Indices 2 and 5 fail; regardless of which worker finishes first,
    // the caller must see index 2's error.
    try {
        forEachIndexParallel(8, [](std::size_t i) {
            if (i == 2 || i == 5) {
                throw verify::SimError(verify::ErrorKind::Config,
                                       "order-test", std::to_string(i));
            }
        }, 4);
        FAIL() << "expected verify::SimError";
    } catch (const verify::SimError &e) {
        EXPECT_EQ(e.reason(), "2");
    }
}

TEST(Parallel, AllIndicesRunExactlyOnce)
{
    std::vector<int> hits(64, 0);
    forEachIndexParallel(hits.size(),
                         [&](std::size_t i) { hits[i] += 1; }, 8);
    for (std::size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i], 1) << i;
}

TEST(Parallel, ProgressIsMonotonicAndComplete)
{
    std::size_t calls = 0, last = 0;
    forEachIndexParallel(
        16, [](std::size_t) {}, 4,
        [&](std::size_t done, std::size_t total) {
            EXPECT_EQ(total, 16u);
            EXPECT_EQ(done, last + 1);  // serialized, strictly increasing
            last = done;
            ++calls;
        });
    EXPECT_EQ(calls, 16u);
    EXPECT_EQ(last, 16u);
}

TEST(Parallel, BadBertiJobsIsTypedConfigError)
{
    for (const char *bad : {"", "0", "-3", "lots", "4x"}) {
        ScopedJobsEnv env(bad);
        try {
            parallelJobCount();
            FAIL() << "expected verify::SimError for \"" << bad << "\"";
        } catch (const verify::SimError &e) {
            EXPECT_EQ(e.kind(), verify::ErrorKind::Config);
            EXPECT_EQ(e.component(), "parallel");
        }
    }
}

TEST(Parallel, ValidBertiJobsIsUsed)
{
    ScopedJobsEnv env("3");
    EXPECT_EQ(parallelJobCount(), 3u);
}

TEST(Parallel, DefaultJobCountIsPositive)
{
    ScopedJobsEnv env(nullptr);
    EXPECT_GE(parallelJobCount(), 1u);
}

} // namespace berti
