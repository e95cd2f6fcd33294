/**
 * @file
 * The benchmark's own checks (perfbench --self-test): the decorators
 * do not change simulated results, the reference check catches a
 * one-counter change, the tail percentile is chosen right, and layer
 * self times fit inside the Machine's run time.
 */

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>

#include "bench.hh"
#include "harness/result_store.hh"
#include "harness/supervisor.hh"
#include "layers.hh"
#include "mem/backend_registry.hh"
#include "sim/serialize.hh"
#include "obs/export.hh"

namespace perfbench
{

using namespace berti;

namespace
{

unsigned failures = 0;

void
expect(bool ok, const std::string &what)
{
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok)
        ++failures;
}

std::string
snapshots(const std::vector<SimResult> &rs)
{
    std::string s;
    for (const SimResult &r : rs)
        s += obs::toJson(resultSnapshot(r));
    return s;
}

/** Self times of a traced call never exceed its Machine's run time. */
void
expectSelfTimesFit(const LayerTally &t, const MachineTally &m,
                   const std::string &cell)
{
    double layers =
        (t.traceSelfNs + t.l1d.selfNs + t.l2.selfNs + t.dramSelfNs) * 1e-9;
    bool each = t.traceSelfNs >= 0 && t.l1d.selfNs >= 0 &&
                t.l2.selfNs >= 0 && t.dramSelfNs >= 0;
    expect(each && layers <= m.runS,
           cell + ": layer self times (" + std::to_string(layers) +
               " s) within machine.run_s (" + std::to_string(m.runS) +
               " s)");
}

void
decoratedMachinesMatch(const Options &opt)
{
    const std::vector<Workload> pool = specGapWorkloads();
    const Workload &gap = findWorkload("bfs-kron");
    const Workload &spec = findWorkload("mcf-like.472");

    // l1d-matrix: one simulate() cell under Berti, a GAP workload.
    {
        PrefetcherSpec berti = makeSpec("berti");
        LayerSink sink;
        MachineTally m;
        auto traced = tracedSimulate({gap}, berti, singleParams(), &sink, &m);
        auto plain = simulate(gap, berti, singleParams());
        expect(snapshots(traced) == snapshots({plain}),
               "l1d-matrix cell " + gap.name +
                   "/berti: decorated snapshot equals simulate()'s");
        LayerTally t = sink.total();
        expect(t.nextCalls > 0 && t.l1d.accessCalls > 0 &&
                   t.tickCalls > 0 && t.generators == 1,
               "l1d-matrix cell: every decorator saw calls");
        expectSelfTimesFit(t, m, "l1d-matrix cell");
    }

    // The none spec keeps null factories, so nothing is wrapped.
    {
        PrefetcherSpec none = tracedSpec(makeSpec("none"), nullptr);
        expect(!none.l1d && !none.l2,
               "none spec stays unwrapped (NoPrefetcher hook skip kept)");
    }

    // mix4-shared: Fig. 20's first mix under Berti.
    {
        const std::vector<Mix> mixes = fig20Mixes(pool.size());
        std::vector<Workload> mix;
        for (std::size_t idx : mixes[0])
            mix.push_back(pool[idx]);
        PrefetcherSpec berti = makeSpec("berti");
        LayerSink sink;
        MachineTally m;
        auto traced = tracedSimulate(mix, berti, mixParams(), &sink, &m);
        auto plain = simulateMix(mix, berti, mixParams());
        expect(snapshots(traced) == snapshots(plain),
               "mix4-shared cell: decorated snapshots equal "
               "simulateMix()'s");
        expectSelfTimesFit(sink.total(), m, "mix4-shared cell");
    }

    // figure-sweep: one store-backed supervised cell with an L2
    // prefetcher, decorated workload and spec.
    {
        PrefetcherSpec combo = makeSpec("berti+spp-ppf");
        LayerSink sink;
        const std::string dir = opt.workDir + "/selftest-store";
        std::filesystem::remove_all(dir);
        harness::ResultStore store(dir);
        harness::SupervisorConfig cfg;
        cfg.store = &store;
        cfg.jobs = 1;
        harness::SweepReport report = harness::runSupervisedMatrix(
            {tracedWorkload(spec, &sink)}, {tracedSpec(combo, &sink)},
            singleParams(), cfg);
        auto plain = simulate(spec, combo, singleParams());
        const harness::CellResult &cell = report.cells[0][0];
        expect(cell.ok() &&
                   snapshots({cell.result}) == snapshots({plain}),
               "figure-sweep cell " + spec.name +
                   "/berti+spp-ppf: decorated snapshot equals "
                   "simulate()'s");
        LayerTally t = sink.total();
        expect(t.l2.accessCalls > 0 && t.l2.issueAttempts > 0,
               "figure-sweep cell: the L2 decorator saw calls");
        std::filesystem::remove_all(dir);
    }
}

/** A traced backend's checkpoint, taken with a read in flight through
 *  a client proxy, restores into another traced backend. */
void
tracedBackendCheckpoint()
{
    struct Recorder final : ReadClient
    {
        unsigned done = 0;
        void readDone(const MemRequest &) override { ++done; }
    } client;
    sim::PtrMap clients;
    clients.add(static_cast<ReadClient *>(&client));

    Cycle clock = 0;
    mem::ParsedBackend be = mem::parseBackendSpec("");
    LayerSink sink;
    TracedBackend a(mem::makeMemBackend(be.sel, be.channel, &clock), &sink);
    TracedBackend b(mem::makeMemBackend(be.sel, be.channel, &clock), &sink);
    MemRequest req;
    req.pLine = 0x1234;
    req.client = &client;
    bool accepted = a.submitRead(req);
    sim::ByteWriter w;
    a.saveState(w, clients);
    sim::ByteReader r(w.data(), "selftest");
    b.loadState(r, clients);
    for (; clock < 10000 && client.done < 2; ++clock) {
        a.tick();
        b.tick();
    }
    expect(accepted && client.done == 2 && a.pendingReads() == 0 &&
               b.pendingReads() == 0,
           "traced backend checkpoint with a read in flight restores");
}

void
referenceFlagsPerturbation(const Options &opt)
{
    Reference ref = Reference::load(opt.referencePath);
    const std::string key = singleKey("berti", "mcf-like.472");
    Counters got = referenceCounters(
        simulate(findWorkload("mcf-like.472"), makeSpec("berti"),
                 singleParams()));
    expect(ref.check(key, got).empty(),
           "reference matches a fresh " + key);

    Counters perturbed = got;
    perturbed["l1d.demand_misses"] += 1;
    std::string diff = ref.check(key, perturbed);
    expect(diff.find("l1d.demand_misses") != std::string::npos,
           "reference check flags a one-counter perturbation: " + diff);

    Counters extra = got;
    extra["core.cpi_stack.dram"] = 7;
    expect(ref.check(key, extra).empty(),
           "reference check ignores counters it does not keep");

    Counters missing = got;
    missing.erase("dram.reads");
    expect(!ref.check(key, missing).empty(),
           "reference check flags a missing counter");
    expect(!ref.check("single/berti/no-such-workload", got).empty(),
           "reference check flags a cell it has no reference for");
}

void
tailPercentiles()
{
    auto samples = [](std::size_t n) {
        std::vector<double> v;
        for (std::size_t i = n; i >= 1; --i)
            v.push_back(static_cast<double>(i));
        return v;
    };
    Tail t32 = tailOf(samples(32));
    expect(t32.samples == 32 && t32.value == 22.0 &&
               std::abs(t32.percentile - 68.75) < 1e-9,
           "tail of 32 samples is p68.75 (22nd value, 10 beyond)");
    Tail t235 = tailOf(samples(235));
    expect(t235.samples == 235 && t235.value == 225.0 &&
               std::abs(t235.percentile - 100.0 * 225 / 235) < 1e-9,
           "tail of 235 samples is p95.74 (225th value, 10 beyond)");
    expect(median(samples(32)) == 16.5 && median(samples(235)) == 118.0,
           "median of 32 and 235 samples");
}

} // namespace

int
runSelfTests(const Options &opt)
{
    std::filesystem::create_directories(opt.workDir);
    tailPercentiles();
    referenceFlagsPerturbation(opt);
    decoratedMachinesMatch(opt);
    tracedBackendCheckpoint();
    std::printf("%s: %u failed\n", failures ? "FAIL" : "PASS", failures);
    return failures ? 1 : 0;
}

} // namespace perfbench
