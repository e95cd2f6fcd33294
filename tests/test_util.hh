/**
 * @file
 * Shared test helpers: a scripted prefetch port that records issued
 * requests, a fixed-latency backing memory for driving a Cache in
 * isolation, and a store-less supervised matrix for determinism
 * checks.
 */

#ifndef BERTI_TESTS_TEST_UTIL_HH
#define BERTI_TESTS_TEST_UTIL_HH

#include <deque>
#include <vector>

#include "harness/supervisor.hh"
#include "mem/cache.hh"
#include "prefetch/prefetcher.hh"
#include "verify/sim_error.hh"

namespace berti::test
{

/** Records every prefetch a prefetcher under test issues. */
class RecordingPort : public PrefetchPort
{
  public:
    struct Issue
    {
        Addr line;
        FillLevel level;
    };

    bool
    issuePrefetch(Addr line, FillLevel level) override
    {
        issues.push_back({line, level});
        return accept;
    }

    double mshrOccupancy() const override { return occupancy; }
    Cycle now() const override { return time; }

    /** Count issues targeting one line. */
    std::size_t
    countFor(Addr line) const
    {
        std::size_t n = 0;
        for (const auto &i : issues) {
            if (i.line == line)
                ++n;
        }
        return n;
    }

    bool
    hasIssue(Addr line) const
    {
        return countFor(line) > 0;
    }

    std::vector<Issue> issues;
    double occupancy = 0.0;
    Cycle time = 0;
    bool accept = true;
};

/**
 * Fixed-latency backing store standing in for the rest of the
 * hierarchy below a Cache under test.
 */
class TestMemory : public MemLevel
{
  public:
    explicit TestMemory(const Cycle *clock, Cycle latency = 100)
        : clock(clock), latency(latency)
    {}

    bool
    submitRead(MemRequest req) override
    {
        if (refuseReads)
            return false;
        ++reads;
        pending.push_back({*clock + latency, req});
        return true;
    }

    void
    submitWriteback(Addr p_line) override
    {
        ++writebacks;
        lastWriteback = p_line;
    }

    /** Deliver matured responses. */
    void
    tick()
    {
        while (!pending.empty() && pending.front().first <= *clock) {
            MemRequest req = pending.front().second;
            pending.pop_front();
            if (req.client)
                req.client->readDone(req);
        }
    }

    const Cycle *clock;
    Cycle latency;
    std::deque<std::pair<Cycle, MemRequest>> pending;
    std::uint64_t reads = 0;
    std::uint64_t writebacks = 0;
    Addr lastWriteback = kNoAddr;
    bool refuseReads = false;
};

/** Step helper: tick cache + memory n cycles. */
inline void
stepCycles(Cycle &clock, Cache &cache, TestMemory &mem, unsigned n)
{
    for (unsigned i = 0; i < n; ++i) {
        ++clock;
        mem.tick();
        cache.tick();
    }
}

/**
 * specs x workloads through runSupervisedMatrix with no store on `jobs`
 * workers (0 = BERTI_JOBS, else every hardware thread), as
 * grid[s][w]. A failed cell is rethrown as its typed SimError.
 */
inline std::vector<std::vector<SimResult>>
supervisedGrid(const std::vector<Workload> &workloads,
               const std::vector<PrefetcherSpec> &specs,
               const SimParams &params, unsigned jobs)
{
    harness::SupervisorConfig cfg;
    cfg.jobs = jobs;
    harness::SweepReport report =
        harness::runSupervisedMatrix(workloads, specs, params, cfg);
    std::vector<std::vector<SimResult>> grid(specs.size());
    for (std::size_t s = 0; s < specs.size(); ++s) {
        for (const harness::CellResult &cell : report.cells[s]) {
            if (!cell.ok()) {
                throw verify::SimError(cell.error.kind, cell.error.component,
                                       cell.error.reason);
            }
            grid[s].push_back(cell.result);
        }
    }
    return grid;
}

} // namespace berti::test

#endif // BERTI_TESTS_TEST_UTIL_HH
