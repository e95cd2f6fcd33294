/** @file End-to-end integration tests reproducing the paper's
 *  qualitative claims at small scale (fast enough for CI). */

#include <gtest/gtest.h>

#include "harness/experiment.hh"

namespace berti
{

namespace
{

SimParams
quick()
{
    SimParams p;
    p.warmupInstructions = 20000;
    p.measureInstructions = 100000;
    return p;
}

} // namespace

TEST(Integration, IpStrideGainsNothingOnAlternatingStrides)
{
    // Paper section II-B: the lbm +1/+2 pattern defeats IP-stride.
    const Workload &w = findWorkload("lbm-like.2676");
    SimResult none = simulate(w, makeSpec("none"), quick());
    SimResult ips = simulate(w, makeSpec("ip-stride"), quick());
    EXPECT_LT(ips.roi.l1d.prefetchUseful, 2000u);
    EXPECT_NEAR(ips.ipc / none.ipc, 1.0, 0.1);
}

TEST(Integration, BertiCoversAlternatingStrides)
{
    const Workload &w = findWorkload("lbm-like.2676");
    SimResult none = simulate(w, makeSpec("none"), quick());
    SimResult berti = simulate(w, makeSpec("berti"), quick());
    EXPECT_GT(berti.ipc, 1.2 * none.ipc);
}

TEST(Integration, BertiBestOnMcfLikeLocalDeltas)
{
    // Paper Figure 3 / IV-C: per-IP local deltas beat global deltas.
    const Workload &w = findWorkload("mcf-like.1554");
    SimResult berti = simulate(w, makeSpec("berti"), quick());
    SimResult mlop = simulate(w, makeSpec("mlop"), quick());
    SimResult ipcp = simulate(w, makeSpec("ipcp"), quick());
    EXPECT_GT(berti.ipc, mlop.ipc);
    EXPECT_GT(berti.ipc, ipcp.ipc);
}

TEST(Integration, BertiMoreAccurateThanMlopAndIpcp)
{
    // Paper Figure 10: Berti ~87%, MLOP ~62%, IPCP ~51% on average.
    const Workload &w = findWorkload("mcf-like.1554");
    SimResult berti = simulate(w, makeSpec("berti"), quick());
    SimResult mlop = simulate(w, makeSpec("mlop"), quick());
    EXPECT_GT(berti.roi.l1d.accuracy(), mlop.roi.l1d.accuracy());
}

TEST(Integration, BertiMostlyTimely)
{
    // Paper Figure 10 (dark bars): almost no late Berti prefetches.
    const Workload &w = findWorkload("stream-like.1");
    SimResult berti = simulate(w, makeSpec("berti"), quick());
    ASSERT_GT(berti.roi.l1d.prefetchUseful, 0u);
    double late = static_cast<double>(berti.roi.l1d.prefetchLate) /
                  static_cast<double>(berti.roi.l1d.prefetchUseful);
    EXPECT_LT(late, 0.5);

    SimResult ipcp = simulate(w, makeSpec("ipcp"), quick());
    ASSERT_GT(ipcp.roi.l1d.prefetchUseful, 0u);
    double ipcp_late = static_cast<double>(ipcp.roi.l1d.prefetchLate) /
                       static_cast<double>(ipcp.roi.l1d.prefetchUseful);
    EXPECT_GT(ipcp_late, late);
}

TEST(Integration, PointerChaseResistsEveryPrefetcher)
{
    // mcf_s-1536-like: serial dependent loads, nothing is timely.
    const Workload &w = findWorkload("mcf-like.1536");
    SimResult none = simulate(w, makeSpec("none"), quick());
    SimResult berti = simulate(w, makeSpec("berti"), quick());
    EXPECT_NEAR(berti.ipc / none.ipc, 1.0, 0.1);
}

TEST(Integration, BertiDoesNotPolluteOnRandom)
{
    // Random accesses: an accurate prefetcher issues almost nothing.
    const Workload &w = findWorkload("omnetpp-like.874");
    SimResult none = simulate(w, makeSpec("none"), quick());
    SimResult berti = simulate(w, makeSpec("berti"), quick());
    EXPECT_LT(berti.roi.l1d.prefetchFills,
              berti.roi.l1d.demandMisses / 2);
    EXPECT_GT(berti.ipc, 0.9 * none.ipc);
}

TEST(Integration, MultiLevelComboRuns)
{
    const Workload &w = findWorkload("stream-like.1");
    SimResult combo = simulate(w, makeSpec("berti+spp-ppf"), quick());
    SimResult solo = simulate(w, makeSpec("berti"), quick());
    EXPECT_GT(combo.roi.l2.prefetchIssued, 0u);
    EXPECT_GT(combo.ipc, 0.9 * solo.ipc);
}

TEST(Integration, PrefetchTrafficShowsInLowerLevels)
{
    const Workload &w = findWorkload("stream-like.1");
    SimResult none = simulate(w, makeSpec("none"), quick());
    SimResult mlop = simulate(w, makeSpec("mlop"), quick());
    // Prefetching adds requests below L1D (traffic, Figure 14's axis).
    EXPECT_GE(mlop.roi.l1d.requestsBelow, none.roi.l1d.requestsBelow);
}

TEST(Integration, CloudWorkloadsHaveLowDataMpkiHighInstrMpki)
{
    // Paper section IV-G: CloudSuite is front-end bound.
    SimResult r =
        simulate(findWorkload("cloud9-like"), makeSpec("none"), quick());
    std::uint64_t n = r.roi.core.instructions;
    EXPECT_LT(r.roi.l1d.mpki(n), 25.0);
    EXPECT_GT(r.roi.l1i.mpki(n), 5.0);
}

TEST(Integration, GapSpeedupsAreModest)
{
    // Paper Figure 8: GAP gains are small for every prefetcher.
    const Workload &w = findWorkload("bfs-kron");
    SimResult none = simulate(w, makeSpec("none"), quick());
    SimResult berti = simulate(w, makeSpec("berti"), quick());
    EXPECT_NEAR(berti.ipc / none.ipc, 1.05, 0.25);
}

TEST(Integration, CrossPageAblationLosesPerformance)
{
    // Paper section IV-J: disabling cross-page prefetching hurts SPEC.
    BertiConfig no_cross;
    no_cross.crossPage = false;
    const Workload &w = findWorkload("stream-like.1");
    SimResult full = simulate(w, makeSpec("berti"), quick());
    SimResult cut =
        simulate(w, makeBertiSpec(no_cross), quick());
    EXPECT_GE(full.ipc, 0.98 * cut.ipc);
}

TEST(Integration, TinyLatencyCounterHurts)
{
    // Paper section IV-J: a 4-bit latency counter drops performance.
    BertiConfig tiny;
    tiny.latencyBits = 4;  // max 15 cycles: every DRAM fill overflows
    const Workload &w = findWorkload("stream-like.1");
    SimResult full = simulate(w, makeSpec("berti"), quick());
    SimResult cut =
        simulate(w, makeBertiSpec(tiny), quick());
    EXPECT_GT(full.ipc, cut.ipc);
}

} // namespace berti
