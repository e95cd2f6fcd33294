#include "trace/graph.hh"

#include <algorithm>

#include "sim/rng.hh"

namespace berti
{

namespace
{

/// Assemble a CSR from an unsorted (src, dst) edge list, keeping each
/// source's edges in list order.
Csr
fromEdges(std::uint32_t nodes,
          std::vector<std::pair<std::uint32_t, std::uint32_t>> &edges)
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

/**
 * Build a CSR row by row in node order: emit_row(col) appends the next
 * node's targets to col. A builder that draws each node's edges in turn
 * needs no edge list and no sort, since the stable counting sort of
 * fromEdges would return its edges in exactly the order they were drawn.
 * edge_hint only sizes the first allocation of col.
 */
template <class EmitRow>
Csr
fromRows(std::uint32_t nodes, std::size_t edge_hint, EmitRow emit_row)
{
    Csr g;
    g.numNodes = nodes;
    g.rowPtr.reserve(static_cast<std::size_t>(nodes) + 1);
    g.rowPtr.push_back(0);
    g.col.reserve(edge_hint);
    for (std::uint32_t u = 0; u < nodes; ++u) {
        emit_row(g.col);
        g.rowPtr.push_back(static_cast<std::uint32_t>(g.col.size()));
    }
    return g;
}

} // namespace

bool
Csr::valid() const
{
    if (rowPtr.size() != static_cast<std::size_t>(numNodes) + 1)
        return false;
    if (rowPtr.front() != 0 || rowPtr.back() != col.size())
        return false;
    for (std::size_t i = 0; i + 1 < rowPtr.size(); ++i) {
        if (rowPtr[i] > rowPtr[i + 1])
            return false;
    }
    return std::all_of(col.begin(), col.end(),
                       [this](std::uint32_t v) { return v < numNodes; });
}

Csr
makeUniformGraph(std::uint32_t nodes, std::uint32_t avg_degree,
                 std::uint64_t seed)
{
    Rng rng(seed);
    return fromRows(nodes, static_cast<std::size_t>(nodes) * avg_degree,
                    [&](std::vector<std::uint32_t> &col) {
        for (std::uint32_t d = 0; d < avg_degree; ++d)
            col.push_back(static_cast<std::uint32_t>(rng.nextBounded(nodes)));
    });
}

Csr
makeKronGraph(std::uint32_t nodes, std::uint32_t avg_degree,
              std::uint64_t seed)
{
    Rng rng(seed);
    // Per-node degree itself follows a power law.
    ZipfSampler degree(4ull * avg_degree, 0.8);
    ZipfSampler target(nodes, 0.75);
    return fromRows(nodes, static_cast<std::size_t>(nodes) * avg_degree,
                    [&](std::vector<std::uint32_t> &col) {
        std::uint32_t deg = 1 + static_cast<std::uint32_t>(degree.draw(rng));
        for (std::uint32_t d = 0; d < deg; ++d) {
            std::uint32_t v = static_cast<std::uint32_t>(target.draw(rng));
            // Scatter hub IDs across the range so locality is realistic.
            col.push_back(static_cast<std::uint32_t>(
                (static_cast<std::uint64_t>(v) * 2654435761ull) % nodes));
        }
    });
}

Csr
makeRoadGraph(std::uint32_t width, std::uint32_t height, std::uint64_t seed)
{
    Rng rng(seed);
    std::uint32_t nodes = width * height;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
    edges.reserve(static_cast<std::size_t>(nodes) * 4);
    auto id = [width](std::uint32_t x, std::uint32_t y) {
        return y * width + x;
    };
    for (std::uint32_t y = 0; y < height; ++y) {
        for (std::uint32_t x = 0; x < width; ++x) {
            std::uint32_t u = id(x, y);
            if (x + 1 < width) {
                edges.emplace_back(u, id(x + 1, y));
                edges.emplace_back(id(x + 1, y), u);
            }
            if (y + 1 < height) {
                edges.emplace_back(u, id(x, y + 1));
                edges.emplace_back(id(x, y + 1), u);
            }
            // Rare shortcut (bridge/highway) edges.
            if (rng.nextBool(0.01)) {
                edges.emplace_back(
                    u, static_cast<std::uint32_t>(rng.nextBounded(nodes)));
            }
        }
    }
    return fromEdges(nodes, edges);
}

} // namespace berti
