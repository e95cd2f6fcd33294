/** @file CSR graph builder tests. */

#include <gtest/gtest.h>

#include <ios>
#include <utility>

#include "sim/rng.hh"
#include "trace/graph.hh"
#include "trace/registry.hh"
#include "verify/sim_error.hh"

namespace berti
{

TEST(Graph, UniformIsValidWithExpectedDegree)
{
    Csr g = makeUniformGraph(1000, 8, 1);
    EXPECT_TRUE(g.valid());
    EXPECT_EQ(g.numNodes, 1000u);
    EXPECT_EQ(g.numEdges(), 8000u);
    for (std::uint32_t n = 0; n < g.numNodes; ++n)
        EXPECT_EQ(g.degree(n), 8u);
}

TEST(Graph, KronIsValidAndSkewed)
{
    Csr g = makeKronGraph(4096, 8, 2);
    EXPECT_TRUE(g.valid());
    // Power-law in-degree: some hub receives far more than average.
    std::vector<std::uint32_t> indeg(g.numNodes, 0);
    for (std::uint32_t v : g.col)
        ++indeg[v];
    std::uint32_t max_in = 0;
    for (std::uint32_t d : indeg)
        max_in = std::max(max_in, d);
    double avg = static_cast<double>(g.numEdges()) / g.numNodes;
    EXPECT_GT(max_in, 10 * avg);
}

TEST(Graph, RoadIsValidSparseAndSymmetricish)
{
    Csr g = makeRoadGraph(50, 40, 3);
    EXPECT_TRUE(g.valid());
    EXPECT_EQ(g.numNodes, 2000u);
    double avg = static_cast<double>(g.numEdges()) / g.numNodes;
    EXPECT_GT(avg, 3.0);
    EXPECT_LT(avg, 4.5);  // grid degree ~4 plus rare shortcuts
}

TEST(Graph, BuildersAreDeterministic)
{
    Csr a = makeKronGraph(2048, 8, 7);
    Csr b = makeKronGraph(2048, 8, 7);
    EXPECT_EQ(a.rowPtr, b.rowPtr);
    EXPECT_EQ(a.col, b.col);
    Csr c = makeKronGraph(2048, 8, 8);
    EXPECT_NE(a.col, c.col);
}

TEST(Graph, ValidCatchesCorruption)
{
    Csr g = makeUniformGraph(100, 4, 1);
    ASSERT_TRUE(g.valid());
    Csr bad = g;
    bad.col[0] = 100;  // out-of-range target
    EXPECT_FALSE(bad.valid());
    Csr bad2 = g;
    bad2.rowPtr[5] = bad2.rowPtr[6] + 1;  // non-monotone
    EXPECT_FALSE(bad2.valid());
}

namespace
{

/// FNV-1a-64 over numNodes, rowPtr and col, one 32-bit word at a time.
std::uint64_t
digest(const Csr &g)
{
    std::uint64_t x = 0xcbf29ce484222325ull;
    auto mix = [&x](std::uint32_t v) {
        x ^= v;
        x *= 0x100000001b3ull;
    };
    mix(g.numNodes);
    for (std::uint32_t v : g.rowPtr)
        mix(v);
    for (std::uint32_t v : g.col)
        mix(v);
    return x;
}

using EdgeList = std::vector<std::pair<std::uint32_t, std::uint32_t>>;

/// The edge-list + counting-sort assembly the Urand and Kron builders
/// used before they wrote their CSR directly.
Csr
referenceFromEdges(std::uint32_t nodes, const EdgeList &edges)
{
    Csr g;
    g.numNodes = nodes;
    g.rowPtr.assign(nodes + 1, 0);
    for (const auto &e : edges)
        ++g.rowPtr[e.first + 1];
    for (std::uint32_t i = 0; i < nodes; ++i)
        g.rowPtr[i + 1] += g.rowPtr[i];
    g.col.resize(edges.size());
    std::vector<std::uint32_t> fill(g.rowPtr.begin(), g.rowPtr.end() - 1);
    for (const auto &e : edges)
        g.col[fill[e.first]++] = e.second;
    return g;
}

Csr
referenceUniform(std::uint32_t nodes, std::uint32_t avg_degree,
                 std::uint64_t seed)
{
    Rng rng(seed);
    EdgeList edges;
    for (std::uint32_t u = 0; u < nodes; ++u) {
        for (std::uint32_t d = 0; d < avg_degree; ++d) {
            edges.emplace_back(
                u, static_cast<std::uint32_t>(rng.nextBounded(nodes)));
        }
    }
    return referenceFromEdges(nodes, edges);
}

Csr
referenceKron(std::uint32_t nodes, std::uint32_t avg_degree,
              std::uint64_t seed)
{
    Rng rng(seed);
    ZipfSampler degree(4ull * avg_degree, 0.8), target(nodes, 0.75);
    EdgeList edges;
    for (std::uint32_t u = 0; u < nodes; ++u) {
        std::uint32_t deg = 1 + static_cast<std::uint32_t>(degree.draw(rng));
        for (std::uint32_t d = 0; d < deg; ++d) {
            std::uint32_t v = static_cast<std::uint32_t>(target.draw(rng));
            v = static_cast<std::uint32_t>(
                (static_cast<std::uint64_t>(v) * 2654435761ull) % nodes);
            edges.emplace_back(u, v);
        }
    }
    return referenceFromEdges(nodes, edges);
}

} // namespace

TEST(Graph, DirectCsrMatchesEdgeListBuilder)
{
    for (std::uint64_t seed : {1ull, 7ull, 0xC0FFEEull}) {
        Csr kron = makeKronGraph(2048, 8, seed);
        Csr kron_ref = referenceKron(2048, 8, seed);
        EXPECT_EQ(kron.rowPtr, kron_ref.rowPtr) << "kron seed " << seed;
        EXPECT_EQ(kron.col, kron_ref.col) << "kron seed " << seed;
        Csr urand = makeUniformGraph(2048, 8, seed);
        Csr urand_ref = referenceUniform(2048, 8, seed);
        EXPECT_EQ(urand.rowPtr, urand_ref.rowPtr) << "urand seed " << seed;
        EXPECT_EQ(urand.col, urand_ref.col) << "urand seed " << seed;
    }
}

TEST(Graph, RegistryGraphsArePinned)
{
    // Digests of the five GAP input graphs as every GAP workload sees
    // them. A change here changes every GAP result; if it is intended,
    // regenerate the goldens and update these values with it.
    const std::pair<const char *, std::uint64_t> pinned[] = {
        {"kron", 0x27bdde8405b249ddull},    {"urand", 0xcca96d129dfed3a5ull},
        {"road", 0xbaf6fe494e223100ull},    {"twitter", 0x6bc7a0bfcab84fd9ull},
        {"web", 0x023d7ad7c11e4032ull},
    };
    for (const auto &[name, want] : pinned) {
        std::shared_ptr<const Csr> g = sharedGraph(name);
        ASSERT_TRUE(g->valid()) << name;
        std::uint64_t got = digest(*g);
        EXPECT_EQ(got, want) << name << ": digest 0x" << std::hex << got;
        EXPECT_EQ(sharedGraph(name), g) << name << " built twice";
    }
}

TEST(Graph, UnknownSharedGraphIsConfigError)
{
    try {
        sharedGraph("facebook");
        FAIL() << "expected verify::SimError";
    } catch (const verify::SimError &e) {
        EXPECT_EQ(e.kind(), verify::ErrorKind::Config);
        EXPECT_NE(e.reason().find("facebook"), std::string::npos);
    }
}

struct GraphParam
{
    std::uint32_t nodes;
    std::uint32_t degree;
};

class GraphSweep : public ::testing::TestWithParam<GraphParam>
{
};

TEST_P(GraphSweep, UniformAndKronValidAtEveryScale)
{
    auto [nodes, degree] = GetParam();
    EXPECT_TRUE(makeUniformGraph(nodes, degree, 9).valid());
    EXPECT_TRUE(makeKronGraph(nodes, degree, 9).valid());
}

INSTANTIATE_TEST_SUITE_P(Scales, GraphSweep,
                         ::testing::Values(GraphParam{16, 2},
                                           GraphParam{256, 4},
                                           GraphParam{5000, 8},
                                           GraphParam{1u << 15, 12}));

} // namespace berti
