/**
 * @file
 * The figure table: one entry per paper table, figure and ablation.
 * Each entry declares the cells it reads and reduces them to the table
 * it prints; bench/figures.cc runs them.
 */

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <memory>

#include "common.hh"
#include "core/berti.hh"
#include "figures.hh"
#include "harness/machine.hh"
#include "harness/parallel.hh"
#include "harness/table.hh"
#include "mem/backend_registry.hh"
#include "prefetch/bop.hh"
#include "prefetch/next_line.hh"
#include "sim/rng.hh"

namespace berti::bench
{

namespace
{

using Matrices = std::vector<Matrix>;
using Opt = sim::SimOptions;

// ------------------------------------------------------------- cells

/** A registry spec column, labelled with its (canonical) name. */
Column
column(const Opt &opt, const std::string &name)
{
    PrefetcherSpec s = makeSpec(name, opt);
    return {s.name, std::move(s)};
}

/** A Berti-config column under a display label. */
Column
bertiColumn(const std::string &label, const BertiConfig &cfg)
{
    return {label, makeBertiSpec(cfg)};
}

/** workloads x registry specs at the default params. */
Matrix
grid(const Opt &opt, std::vector<Workload> workloads,
     const std::vector<std::string> &specs)
{
    Matrix m;
    m.params = defaultParams(opt);
    m.workloads = std::move(workloads);
    for (const std::string &name : specs)
        m.columns.push_back(column(opt, name));
    return m;
}

/** SPEC+GAP plus the BERTI_TRACE_WORKLOADS traces. */
std::vector<Workload>
specGapAndTraces(const Opt &opt)
{
    auto workloads = specGapWorkloads();
    for (auto &w : extraTraceWorkloads(opt))
        workloads.push_back(std::move(w));
    return workloads;
}

/** The representative subset of the sensitivity sweeps (Figs. 21-22). */
std::vector<Workload>
sensitivitySubset()
{
    std::vector<Workload> out;
    for (const char *n : {"stream-like.1", "lbm-like.2676", "mcf-like.1554",
                          "bwaves-like.1740", "pr-urand", "cc-kron"})
        out.push_back(findWorkload(n));
    return out;
}

// ---------------------------------------------------------- reducers

/** Geomean speedup of a sub-range selected by suite ("" = all). */
double
suiteSpeedup(const std::vector<Workload> &workloads,
             const std::vector<SimResult> &test,
             const std::vector<SimResult> &baseline,
             const std::string &suite)
{
    std::vector<double> s;
    for (std::size_t i = 0; i < workloads.size(); ++i) {
        if (suite.empty() || workloads[i].suite == suite) {
            if (baseline[i].ipc > 0)
                s.push_back(test[i].ipc / baseline[i].ipc);
        }
    }
    return geomean(s.data(), s.size());
}

/** Arithmetic mean of a per-workload metric over a suite. */
template <typename Fn>
double
suiteMean(const std::vector<Workload> &workloads,
          const std::vector<SimResult> &results, const std::string &suite,
          Fn metric)
{
    double sum = 0.0;
    unsigned n = 0;
    for (std::size_t i = 0; i < workloads.size(); ++i) {
        if (suite.empty() || workloads[i].suite == suite) {
            sum += metric(results[i]);
            ++n;
        }
    }
    return n ? sum / n : 0.0;
}

/**
 * Fills-weighted suite prefetch accuracy: total useful / total fills
 * at the given level (so workloads whose prefetches all landed one
 * level down do not contribute spurious zeros).
 */
double
suiteAccuracy(const std::vector<Workload> &workloads,
              const std::vector<SimResult> &results,
              const std::string &suite, bool l2 = false)
{
    double useful = 0, fills = 0;
    for (std::size_t i = 0; i < workloads.size(); ++i) {
        if (!suite.empty() && workloads[i].suite != suite)
            continue;
        const CacheStats &c = l2 ? results[i].roi.l2 : results[i].roi.l1d;
        useful += static_cast<double>(c.prefetchUseful);
        fills += static_cast<double>(c.prefetchFills);
    }
    return fills > 0 ? std::min(1.0, useful / fills) : 0.0;
}

/** Fills-weighted fraction of late useful prefetches at the L1D. */
double
suiteLateFraction(const std::vector<Workload> &workloads,
                  const std::vector<SimResult> &results,
                  const std::string &suite)
{
    double late = 0, fills = 0;
    for (std::size_t i = 0; i < workloads.size(); ++i) {
        if (!suite.empty() && workloads[i].suite != suite)
            continue;
        late += static_cast<double>(results[i].roi.l1d.prefetchLate);
        fills += static_cast<double>(results[i].roi.l1d.prefetchFills);
    }
    return fills > 0 ? late / fills : 0.0;
}

/** Sum of traffic (reads forwarded + writebacks) out of a level. */
double
trafficBelow(const CacheStats &c)
{
    return static_cast<double>(c.requestsBelow + c.writebacks);
}

double
storageKb(const std::string &spec_name)
{
    return static_cast<double>(makeSpec(spec_name).storageBits) / 8192.0;
}

double
energyPerInstr(const SimResult &s)
{
    return s.energy.total() / static_cast<double>(s.roi.core.instructions);
}

/** {first, SPEC17 / GAP / all geomean speedups of test over base}. */
std::vector<std::string>
speedupRow(const std::string &first, const std::vector<Workload> &w,
           const std::vector<SimResult> &test,
           const std::vector<SimResult> &base)
{
    return {first, TextTable::num(suiteSpeedup(w, test, base, "spec")),
            TextTable::num(suiteSpeedup(w, test, base, "gap")),
            TextTable::num(suiteSpeedup(w, test, base, ""))};
}

/** Rows of speedupRow for every column after the baseline column 0,
 *  each under its display label (or `labels[c - 1]` when given). */
void
speedupRows(TextTable &t, const Matrix &m,
            const std::vector<std::string> &labels = {})
{
    for (std::size_t c = 1; c < m.columns.size(); ++c) {
        t.addRow(speedupRow(labels.empty() ? m.columns[c].label
                                           : labels[c - 1],
                            m.workloads, m.results[c], m.results[0]));
    }
}

/** Figs. 16-17: SPEC+GAP x `specs` (baseline first) at DDR5-6400,
 *  DDR4-3200 and DDR3-1600 rates, one params variant per rate. */
Matrices
dramRates(const Opt &opt, const std::vector<std::string> &specs)
{
    Matrices ms;
    for (unsigned mtps : {6400u, 3200u, 1600u}) {
        Matrix m = grid(opt, specGapWorkloads(), specs);
        m.params.dramMtps = mtps;
        m.variant = "mtps-" + std::to_string(mtps);
        ms.push_back(std::move(m));
    }
    return ms;
}

/** Speedup vs the baseline at the same rate, one row per column. */
void
dramRatesTable(const Matrices &ms, const std::string &first,
               std::ostream &os)
{
    TextTable t({first, "MTPS", "SPEC17", "GAP", "all"});
    for (const Matrix &m : ms) {
        for (std::size_t c = 1; c < m.columns.size(); ++c) {
            auto row = speedupRow(m.columns[c].label, m.workloads,
                                  m.results[c], m.results[0]);
            row.insert(row.begin() + 1, std::to_string(m.params.dramMtps));
            t.addRow(row);
        }
    }
    t.print(os);
}

/** Per-suite mean demand MPKI at each of `levels`, one row per column
 *  and suite (Figs. 11 and 13). */
void
mpkiTable(const Matrix &m, const std::vector<std::string> &header,
          std::initializer_list<CacheStats RunStats::*> levels,
          std::ostream &os)
{
    TextTable t(header);
    for (std::size_t c = 0; c < m.columns.size(); ++c) {
        for (const char *suite : {"spec", "gap"}) {
            std::vector<std::string> row = {m.columns[c].label, suite};
            for (auto level : levels) {
                row.push_back(TextTable::num(
                    suiteMean(m.workloads, m.results[c], suite,
                              [level](const SimResult &s) {
                                  return (s.roi.*level).mpki(
                                      s.roi.core.instructions);
                              }),
                    1));
            }
            t.addRow(row);
        }
    }
    t.print(os);
}

// --------------------------------------------------- bespoke entries

/** Figure 3: Berti's per-IP local deltas vs BOP's one global delta. */
void
fig03Report(const Opt &opt, const Matrices &ms, std::ostream &os)
{
    const Matrix &m = ms[0];
    const Workload &w = m.workloads[0];
    SimParams params = m.params;

    // Two machines kept alive so their prefetcher tables can be dumped.
    std::unique_ptr<TraceGenerator> gens[2];
    std::unique_ptr<Machine> machines[2];
    const PrefetcherFactory factories[2] = {
        [] { return std::make_unique<BertiPrefetcher>(); },
        [] { return std::make_unique<BopPrefetcher>(); },
    };
    forEachIndexParallel(
        2,
        [&](std::size_t i) {
            gens[i] = w.make();
            MachineConfig cfg =
                machineConfigFor(PrefetcherSpec{}, params, 1);
            cfg.l1dPrefetcher = factories[i];
            machines[i] = std::make_unique<Machine>(
                cfg, std::vector<TraceGenerator *>{gens[i].get()});
            machines[i]->run(params.warmupInstructions +
                             params.measureInstructions);
        },
        opt.jobs);
    auto *berti_pf = dynamic_cast<BertiPrefetcher *>(
        machines[0]->l1d(0).prefetcher());
    auto *bop_pf =
        dynamic_cast<BopPrefetcher *>(machines[1]->l1d(0).prefetcher());

    os << "Figure 3: Berti local deltas per IP vs BOP global "
          "delta (" << w.name << ")\n\n";
    TextTable t({"IP", "selected local deltas (status L1/L2)"});
    // The mcf-like generator's delta-cycle IPs are sites 70..75.
    for (unsigned site = 70; site <= 75; ++site) {
        Addr ip = 0x400000 + 4 * site;
        std::string deltas;
        for (const auto &d : berti_pf->deltasFor(ip)) {
            if (d.status == BertiPrefetcher::DeltaStatus::NoPref)
                continue;
            if (d.delta > 0)
                deltas += '+';
            deltas += std::to_string(d.delta);
            deltas += d.status == BertiPrefetcher::DeltaStatus::L1Pref
                          ? "(L1) " : "(L2) ";
        }
        char buf[32];
        std::snprintf(buf, sizeof(buf), "0x%llx",
                      static_cast<unsigned long long>(ip));
        t.addRow({buf, deltas.empty() ? "-" : deltas});
    }
    t.print(os);

    os << "\nBOP global delta for the whole application: +"
       << bop_pf->bestOffset() << "\n";

    // Coverage comparison (paper: BOP covers ~2% of mcf accesses).
    const SimResult &rn = m["none"][0];
    auto coverage = [&](const SimResult &r) {
        double covered = static_cast<double>(rn.roi.l1d.demandMisses) -
                         static_cast<double>(r.roi.l1d.demandMisses);
        return covered / static_cast<double>(rn.roi.l1d.demandMisses);
    };
    os << "\nL1D miss coverage: Berti "
       << TextTable::pct(coverage(m["berti"][0])) << " vs BOP "
       << TextTable::pct(coverage(m["bop"][0])) << "\n";
}

/** Figures 2 and 4 (didactic): the paper's access sequence replayed
 *  against one Berti instance with a controlled fetch latency. */
void
fig04Report(const Opt &, const Matrices &, std::ostream &os)
{
    struct Port : PrefetchPort
    {
        Cycle t = 0;
        bool issuePrefetch(Addr, FillLevel) override { return true; }
        double mshrOccupancy() const override { return 0.0; }
        Cycle now() const override { return t; }
    };

    BertiPrefetcher b;
    Port port;
    b.bind(&port);

    const Cycle latency = 60;
    const Addr ip = 0x401cb0;
    struct Event
    {
        Addr line;
        Cycle access;
    };
    const Event events[] = {{2, 100}, {5, 130}, {7, 150},
                            {10, 165}, {12, 175}, {15, 200}};

    os << "Figure 2/4: timely local deltas for the access "
          "sequence 2, 5, 7, 10, 12, 15 (fetch latency "
       << latency << " cycles)\n\n";
    TextTable t({"access", "time", "strides-so-far",
                 "timely deltas found at fill"});

    Addr prev = 0;
    bool have_prev = false;
    for (const Event &e : events) {
        std::uint64_t before = b.timelyDeltasFound;

        port.t = e.access;
        Prefetcher::AccessInfo a;
        a.ip = ip;
        a.vLine = e.line;
        a.pLine = e.line;
        a.hit = false;
        b.onAccess(a);

        port.t = e.access + latency;
        Prefetcher::FillInfo f;
        f.ip = ip;
        f.vLine = e.line;
        f.pLine = e.line;
        f.hadDemandWaiter = true;
        f.latency = latency;
        b.onFill(f);

        std::string stride = "-";
        if (have_prev) {
            stride = "+";
            stride += std::to_string(e.line - prev);
        }
        t.addRow({std::to_string(e.line), std::to_string(e.access),
                  stride,
                  std::to_string(b.timelyDeltasFound - before) +
                      " new timely"});
        prev = e.line;
        have_prev = true;
    }
    t.print(os);

    os << "\nLearned delta table for the IP (coverage is per "
          "current phase):\n";
    TextTable d({"delta", "coverage", "status"});
    for (const auto &info : b.deltasFor(ip)) {
        const char *status = "no-pref";
        switch (info.status) {
          case BertiPrefetcher::DeltaStatus::L1Pref:
            status = "L1";
            break;
          case BertiPrefetcher::DeltaStatus::L2Pref:
          case BertiPrefetcher::DeltaStatus::L2PrefRepl:
            status = "L2";
            break;
          default:
            break;
        }
        std::string delta = info.delta > 0 ? "+" : "";
        delta += std::to_string(info.delta);
        d.addRow({delta, std::to_string(info.coverage), status});
    }
    d.print(os);
    os << "\nAs in the paper: +10 is seen twice (from 2->12 and "
          "5->15), +13 once; short deltas like +3 are local but "
          "never timely.\n";
}

/** Table I: Berti's storage per structure, and every evaluated
 *  configuration's budget. */
void
table1Report(const Opt &, const Matrices &, std::ostream &os)
{
    BertiConfig cfg;
    os << "Table I: storage overhead of Berti\n\n";
    TextTable t({"structure", "organisation", "storage"});

    auto kb = [](std::uint64_t bits) {
        return TextTable::num(static_cast<double>(bits) / 8.0 / 1024.0,
                              2) + " KB";
    };

    std::uint64_t history_bits =
        static_cast<std::uint64_t>(cfg.historySets) * cfg.historyWays *
            (7 + 24 + 16) + cfg.historySets * 4;
    std::uint64_t table_bits =
        static_cast<std::uint64_t>(cfg.deltaTableEntries) *
        (10 + 4 + 4 + static_cast<std::uint64_t>(cfg.deltasPerEntry) *
                          (13 + 4 + 2));
    std::uint64_t queue_bits = (16 + 16) * 16;
    std::uint64_t line_bits = 768ull * cfg.latencyBits;

    t.addRow({"History table",
              "8-set, 16-way (128-entry), FIFO; 7b tag + 24b line + "
              "16b timestamp",
              kb(history_bits)});
    t.addRow({"Table of deltas",
              "16-entry fully-assoc, FIFO; 10b tag + 4b counter + 16 x "
              "(13b delta, 4b coverage, 2b status)",
              kb(table_bits)});
    t.addRow({"PQ + MSHR", "16+16 entries, 16b timestamp each",
              kb(queue_bits)});
    t.addRow({"L1D", "768 lines, 12b latency per line", kb(line_bits)});
    t.addRow({"Total", "",
              kb(history_bits + table_bits + queue_bits + line_bits)});
    t.print(os);

    os << "\nStorage of every evaluated prefetcher configuration:\n";
    TextTable s({"configuration", "storage (KB)"});
    for (const char *name :
         {"ip-stride", "bop", "mlop", "ipcp", "berti", "none+spp-ppf",
          "none+bingo", "none+vldp", "none+misb", "mlop+bingo",
          "mlop+spp-ppf", "berti+bingo", "berti+spp-ppf", "ipcp+ipcp"}) {
        s.addRow({name, TextTable::num(storageKb(name), 2)});
    }
    s.print(os);
}

/** Tables II and III, printed from the live config structs. */
void
table2Report(const Opt &, const Matrices &, std::ostream &os)
{
    MachineConfig m = MachineConfig::sunnyCove(1);
    os << "Table II: simulation parameters of the baseline system\n\n";
    TextTable t({"component", "configuration"});
    auto cache_row = [&](const char *name, const CacheConfig &c) {
        t.addRow({name,
                  std::to_string(c.sets * c.ways * kLineSize / 1024) +
                      " KB, " + std::to_string(c.ways) + "-way, " +
                      std::to_string(c.latency) + " cycles, " +
                      std::to_string(c.mshrs) + " MSHRs, repl=" +
                      makeReplPolicy(c.repl, c.sets, c.ways)->name()});
    };
    t.addRow({"Core",
              "out-of-order, hashed-perceptron branch predictor, " +
                  std::to_string(m.core.dispatchWidth) + "-issue, " +
                  std::to_string(m.core.retireWidth) + "-retire, " +
                  std::to_string(m.core.robSize) + "-entry ROB"});
    t.addRow({"L1 dTLB", "64 entries, 4-way, 1 cycle"});
    t.addRow({"STLB", "2048 entries, 16-way, 8 cycles"});
    cache_row("L1I", m.l1i);
    cache_row("L1D", m.l1d);
    cache_row("L2", m.l2);
    cache_row("LLC (per core)", m.llc);
    t.addRow({"DRAM",
              "1 channel / 4 cores, " + std::to_string(m.dram.mtps) +
                  " MTPS, FR-FCFS, " + std::to_string(m.dram.banks) +
                  " banks, 4 KB open-page rows, tRP=tRCD=tCAS=" +
                  std::to_string(m.dram.tRp) + " cycles"});
    t.print(os);

    os << "\nTable III: evaluated prefetcher configurations\n\n";
    TextTable p({"prefetcher", "level", "storage (KB)"});
    struct Row { const char *name; const char *level; };
    for (const Row r : std::initializer_list<Row>{
             {"ip-stride", "L1D (baseline)"},
             {"mlop", "L1D"},
             {"ipcp", "L1D"},
             {"berti", "L1D"},
             {"none+spp-ppf", "L2"},
             {"none+bingo", "L2"},
             {"none+vldp", "L2"},
             {"none+misb", "L2 (temporal)"}}) {
        p.addRow({r.name, r.level, TextTable::num(storageKb(r.name), 2)});
    }
    p.print(os);
}

/**
 * Figure 20: 4-core heterogeneous mixes drawn from the SPEC+GAP pool,
 * speedup relative to IP-stride at every L1D. Per-core speedups are
 * combined with the geometric mean per mix, then averaged.
 */
void
fig20Report(const Opt &opt, const Matrices &, std::ostream &os)
{
    const unsigned kMixes = 8;
    const unsigned kCores = 4;

    auto pool = specGapWorkloads();
    Rng rng(0x20221001);
    std::vector<std::vector<Workload>> mixes;
    for (unsigned i = 0; i < kMixes; ++i) {
        std::vector<Workload> mix;
        for (unsigned c = 0; c < kCores; ++c)
            mix.push_back(pool[rng.nextBounded(pool.size())]);
        mixes.push_back(mix);
    }

    SimParams params = defaultParams(opt);
    params.warmupInstructions /= 2;   // 4 cores: keep runtime sane
    params.measureInstructions /= 2;

    const std::vector<std::string> specs = {
        "ip-stride", "mlop", "ipcp", "berti",
        "mlop+bingo", "berti+spp-ppf", "ipcp+ipcp",
    };

    os << "Figure 20: 4-core mix speedups vs IP-stride (" << kMixes
       << " random heterogeneous mixes)\n\n";

    // Every (spec, mix) 4-core simulation is an independent job;
    // grid[spec][mix] holds the per-core results in input order.
    std::vector<PrefetcherSpec> spec_objs;
    for (const auto &name : specs)
        spec_objs.push_back(makeSpec(name));
    std::vector<std::vector<std::vector<SimResult>>> grid(
        specs.size(), std::vector<std::vector<SimResult>>(mixes.size()));
    forEachIndexParallel(
        specs.size() * mixes.size(),
        [&](std::size_t cell) {
            std::size_t s = cell / mixes.size();
            std::size_t mi = cell % mixes.size();
            grid[s][mi] = simulateMix(mixes[mi], spec_objs[s], params);
        },
        opt.jobs, stderrProgress("fig20 mixes"));

    TextTable t({"configuration", "mean-mix-speedup", "best-mix",
                 "worst-mix"});
    for (std::size_t s = 1; s < specs.size(); ++s) {
        std::vector<double> v;
        for (std::size_t mi = 0; mi < mixes.size(); ++mi) {
            std::vector<double> ratio;
            for (unsigned c = 0; c < kCores; ++c)
                ratio.push_back(grid[s][mi][c].ipc / grid[0][mi][c].ipc);
            v.push_back(geomean(ratio.data(), ratio.size()));
        }
        t.addRow({specs[s], TextTable::num(geomean(v.data(), v.size())),
                  TextTable::num(*std::max_element(v.begin(), v.end())),
                  TextTable::num(*std::min_element(v.begin(), v.end()))});
    }
    t.print(os);
}

/**
 * Front-end study: the paper's CloudSuite section observes a high L1I
 * MPKI and a low data MPKI. A next-line L1I prefetcher shows how much
 * of the CloudSuite gap the front end recovers next to data-side
 * prefetching.
 */
void
ablL1iReport(const Opt &opt, const Matrices &, std::ostream &os)
{
    auto workloads = suiteWorkloads("cloud");
    SimParams params = defaultParams(opt);

    auto run = [&](bool l1i_pf, const std::string &l1d_spec) {
        std::vector<SimResult> out(workloads.size());
        forEachIndexParallel(
            workloads.size(),
            [&](std::size_t i) {
                auto gen = workloads[i].make();
                MachineConfig cfg =
                    machineConfigFor(makeSpec(l1d_spec), params, 1);
                if (l1i_pf) {
                    cfg.l1iPrefetcher = [] {
                        return std::make_unique<NextLinePrefetcher>(2);
                    };
                }
                Machine machine(cfg, {gen.get()});
                machine.run(params.warmupInstructions);
                RunStats start = machine.liveStats(0);
                machine.run(params.measureInstructions);
                SimResult r;
                r.roi = machine.liveStats(0).diff(start);
                r.ipc = r.roi.core.ipc();
                out[i] = r;
            },
            opt.jobs);
        return out;
    };

    auto base = run(false, "ip-stride");

    os << "Front-end study: next-line L1I prefetching on "
          "CloudSuite (speedup vs IP-stride, no L1I prefetch)\n\n";
    TextTable t({"configuration", "speedup", "L1I-MPKI"});
    struct Case
    {
        const char *label;
        bool l1i;
        const char *l1d;
    };
    const Case cases[] = {
        {"berti (data only)", false, "berti"},
        {"L1I next-line only", true, "ip-stride"},
        {"berti + L1I next-line", true, "berti"},
    };
    for (const Case &c : cases) {
        auto r = run(c.l1i, c.l1d);
        t.addRow({c.label,
                  TextTable::num(suiteSpeedup(workloads, r, base, "cloud")),
                  TextTable::num(
                      suiteMean(workloads, r, "cloud",
                                [](const SimResult &s) {
                                    return s.roi.l1i.mpki(
                                        s.roi.core.instructions);
                                }),
                      1)});
    }
    t.print(os);
}

} // namespace

std::vector<Figure>
figureTable()
{
    return {
    // Figure 1: accuracy and dynamic memory-hierarchy energy of the
    // state of the art vs Berti; energy normalised to no prefetching.
    {"fig01_motivation",
     [](const Opt &opt) {
         return Matrices{grid(opt, specGapWorkloads(),
                              {"none", "mlop", "ipcp", "none+spp-ppf",
                               "none+bingo", "berti"})};
     },
     [](const Opt &, const Matrices &ms, std::ostream &os) {
         const Matrix &m = ms[0];
         struct Row
         {
             const char *spec;
             const char *label;
             const char *level;
             bool l2;
         };
         const Row rows[] = {
             {"mlop", "MLOP", "L1D", false},
             {"ipcp", "IPCP", "L1D", false},
             {"none+spp-ppf", "SPP-PPF", "L2", true},
             {"none+bingo", "Bingo", "L2", true},
             {"berti", "Berti", "L1D", false},
         };
         os << "Figure 1(a): prefetch accuracy (useful / prefetch "
               "fills)\n";
         TextTable acc({"prefetcher", "level", "SPEC17-accuracy",
                        "GAP-accuracy"});
         for (const Row &r : rows) {
             acc.addRow({r.label, r.level,
                         TextTable::pct(suiteAccuracy(m.workloads, m[r.spec],
                                                      "spec", r.l2)),
                         TextTable::pct(suiteAccuracy(m.workloads, m[r.spec],
                                                      "gap", r.l2))});
         }
         acc.print(os);

         os << "\nFigure 1(b): dynamic energy normalised to no "
               "prefetching\n";
         TextTable en({"prefetcher", "SPEC17-energy", "GAP-energy"});
         for (const Row &r : rows) {
             auto norm = [&](const std::string &suite) {
                 double base = suiteMean(m.workloads, m["none"], suite,
                                         energyPerInstr);
                 double val = suiteMean(m.workloads, m[r.spec], suite,
                                        energyPerInstr);
                 return base > 0 ? val / base : 0.0;
             };
             en.addRow({r.label, TextTable::num(norm("spec")),
                        TextTable::num(norm("gap"))});
         }
         en.print(os);
     }},

    // Figure 3: the best deltas are per-IP (local), not global.
    {"fig03_local_vs_global",
     [](const Opt &opt) {
         return Matrices{grid(opt, {findWorkload("mcf-like.1554")},
                              {"berti", "bop", "none"})};
     },
     fig03Report},

    {"fig04_timely_deltas", {}, fig04Report},
    {"table1_storage", {}, table1Report},
    {"table2_config", {}, table2Report},

    // Figure 7: speedup over IP-stride vs prefetcher storage.
    {"fig07_speedup_vs_storage",
     [](const Opt &opt) {
         return Matrices{grid(opt, specGapWorkloads(),
                              {"ip-stride", "mlop", "ipcp", "berti",
                               "none+spp-ppf", "none+bingo", "mlop+bingo",
                               "mlop+spp-ppf", "berti+bingo",
                               "berti+spp-ppf", "ipcp+ipcp"})};
     },
     [](const Opt &, const Matrices &ms, std::ostream &os) {
         const Matrix &m = ms[0];
         os << "Figure 7: speedup vs storage (baseline: L1D "
               "IP-stride)\n\n";
         TextTable t({"configuration", "kind", "storage-KB",
                      "speedup-spec+gap"});
         for (std::size_t c = 0; c < m.columns.size(); ++c) {
             const std::string &name = m.columns[c].label;
             const char *kind = name.find('+') == std::string::npos
                                    ? "L1D"
                                    : name.rfind("none+", 0) == 0 ? "L2"
                                                                  : "L1D+L2";
             t.addRow({name, kind, TextTable::num(storageKb(name), 2),
                       TextTable::num(suiteSpeedup(m.workloads, m.results[c],
                                                   m.results[0], ""))});
         }
         t.print(os);
     }},

    // Figure 8: per-suite speedup of the L1D prefetchers.
    {"fig08_l1d_speedup",
     [](const Opt &opt) {
         return Matrices{grid(opt, specGapWorkloads(),
                              {"ip-stride", "mlop", "ipcp", "berti"})};
     },
     [](const Opt &, const Matrices &ms, std::ostream &os) {
         os << "Figure 8: speedup of L1D prefetchers vs IP-stride\n\n";
         TextTable t({"prefetcher", "SPEC17", "GAP", "all"});
         speedupRows(t, ms[0]);
         t.print(os);
     }},

    // Figure 9: per-workload speedups, BERTI_TRACE_WORKLOADS included.
    {"fig09_per_trace",
     [](const Opt &opt) {
         return Matrices{grid(opt, specGapAndTraces(opt),
                              {"ip-stride", "mlop", "ipcp", "berti"})};
     },
     [](const Opt &, const Matrices &ms, std::ostream &os) {
         const Matrix &m = ms[0];
         os << "Figure 9: per-trace speedup vs IP-stride\n\n";
         TextTable t({"workload", "suite", "MLOP", "IPCP", "Berti"});
         for (std::size_t i = 0; i < m.workloads.size(); ++i) {
             double base = m.results[0][i].ipc;
             std::vector<std::string> row = {m.workloads[i].name,
                                             m.workloads[i].suite};
             for (std::size_t c = 1; c < 4; ++c)
                 row.push_back(TextTable::num(m.results[c][i].ipc / base));
             t.addRow(row);
         }
         std::vector<std::string> row = {"geomean-all", ""};
         for (std::size_t c = 1; c < 4; ++c) {
             row.push_back(TextTable::num(suiteSpeedup(
                 m.workloads, m.results[c], m.results[0], "")));
         }
         t.addRow(row);
         t.print(os);
     }},

    // Figure 10: L1D accuracy split into timely and late.
    {"fig10_accuracy",
     [](const Opt &opt) {
         return Matrices{
             grid(opt, specGapWorkloads(), {"mlop", "ipcp", "berti"})};
     },
     [](const Opt &, const Matrices &ms, std::ostream &os) {
         const Matrix &m = ms[0];
         os << "Figure 10: prefetch accuracy at the L1D (useful = "
               "timely + late)\n\n";
         TextTable t({"prefetcher", "suite", "accuracy", "timely", "late"});
         for (std::size_t c = 0; c < m.columns.size(); ++c) {
             for (const char *suite : {"spec", "gap"}) {
                 double acc = suiteAccuracy(m.workloads, m.results[c], suite);
                 double late =
                     suiteLateFraction(m.workloads, m.results[c], suite);
                 t.addRow({m.columns[c].label, suite, TextTable::pct(acc),
                           TextTable::pct(acc - late),
                           TextTable::pct(late)});
             }
         }
         t.print(os);
     }},

    // Figure 11: demand MPKI at every level with the L1D prefetchers.
    {"fig11_mpki",
     [](const Opt &opt) {
         return Matrices{grid(opt, specGapWorkloads(),
                              {"none", "ip-stride", "mlop", "ipcp",
                               "berti"})};
     },
     [](const Opt &, const Matrices &ms, std::ostream &os) {
         os << "Figure 11: demand MPKI with L1D prefetchers\n\n";
         mpkiTable(ms[0], {"prefetcher", "suite", "L1D-MPKI", "L2-MPKI",
                           "LLC-MPKI"},
                   {&RunStats::l1d, &RunStats::l2, &RunStats::llc}, os);
     }},

    // Figure 12: multi-level combinations vs Berti alone.
    {"fig12_multilevel_speedup",
     [](const Opt &opt) {
         return Matrices{grid(opt, specGapWorkloads(),
                              {"ip-stride", "berti", "mlop+bingo",
                               "mlop+spp-ppf", "berti+bingo",
                               "berti+spp-ppf", "ipcp+ipcp"})};
     },
     [](const Opt &, const Matrices &ms, std::ostream &os) {
         os << "Figure 12: multi-level prefetching speedup vs "
               "IP-stride\n\n";
         TextTable t({"configuration", "SPEC17", "GAP", "all"});
         speedupRows(t, ms[0]);
         t.print(os);
     }},

    // Figure 13: L2 and LLC MPKI with multi-level combinations.
    {"fig13_multilevel_mpki",
     [](const Opt &opt) {
         return Matrices{grid(opt, specGapWorkloads(),
                              {"mlop", "berti", "ipcp", "mlop+bingo",
                               "mlop+spp-ppf", "berti+bingo",
                               "berti+spp-ppf", "ipcp+ipcp"})};
     },
     [](const Opt &, const Matrices &ms, std::ostream &os) {
         os << "Figure 13: demand MPKI with multi-level "
               "prefetching\n\n";
         mpkiTable(ms[0], {"configuration", "suite", "L2-MPKI", "LLC-MPKI"},
                   {&RunStats::l2, &RunStats::llc}, os);
     }},

    // Figure 14: traffic between levels, normalised to no prefetching.
    {"fig14_traffic",
     [](const Opt &opt) {
         return Matrices{grid(opt, specGapWorkloads(),
                              {"none", "ip-stride", "mlop", "ipcp",
                               "berti", "mlop+bingo", "berti+bingo",
                               "berti+spp-ppf"})};
     },
     [](const Opt &, const Matrices &ms, std::ostream &os) {
         const Matrix &m = ms[0];
         os << "Figure 14: memory-hierarchy traffic normalised to no "
               "prefetching\n\n";
         TextTable t({"configuration", "suite", "L1D->L2", "L2->LLC",
                      "LLC->DRAM"});
         for (std::size_t c = 0; c < m.columns.size(); ++c) {
             for (const char *suite : {"spec", "gap"}) {
                 std::vector<std::string> row = {m.columns[c].label, suite};
                 for (auto level : {&RunStats::l1d, &RunStats::l2,
                                    &RunStats::llc}) {
                     auto metric = [level](const SimResult &s) {
                         return trafficBelow(s.roi.*level) /
                                static_cast<double>(s.roi.core.instructions);
                     };
                     double base =
                         suiteMean(m.workloads, m.results[0], suite, metric);
                     double val =
                         suiteMean(m.workloads, m.results[c], suite, metric);
                     row.push_back(TextTable::num(base > 0 ? val / base
                                                           : 0.0));
                 }
                 t.addRow(row);
             }
         }
         t.print(os);
     }},

    // Figure 15: dynamic energy normalised to no prefetching.
    {"fig15_energy",
     [](const Opt &opt) {
         return Matrices{grid(opt, specGapWorkloads(),
                              {"none", "ip-stride", "mlop", "ipcp",
                               "berti", "mlop+bingo", "mlop+spp-ppf",
                               "berti+bingo", "berti+spp-ppf"})};
     },
     [](const Opt &, const Matrices &ms, std::ostream &os) {
         const Matrix &m = ms[0];
         os << "Figure 15: dynamic energy normalised to no "
               "prefetching\n\n";
         TextTable t({"configuration", "SPEC17", "GAP"});
         for (std::size_t c = 0; c < m.columns.size(); ++c) {
             auto norm = [&](const char *suite) {
                 double base = suiteMean(m.workloads, m.results[0], suite,
                                         energyPerInstr);
                 double val = suiteMean(m.workloads, m.results[c], suite,
                                        energyPerInstr);
                 return base > 0 ? val / base : 0.0;
             };
             t.addRow({m.columns[c].label, TextTable::num(norm("spec")),
                       TextTable::num(norm("gap"))});
         }
         t.print(os);
     }},

    // Figure 16: L1D prefetchers under DDR5-6400, DDR4-3200 and
    // DDR3-1600 transfer rates.
    {"fig16_dram_bw_l1d",
     [](const Opt &opt) {
         return dramRates(opt, {"ip-stride", "mlop", "ipcp", "berti"});
     },
     [](const Opt &, const Matrices &ms, std::ostream &os) {
         os << "Figure 16: L1D prefetchers under constrained DRAM "
               "bandwidth (speedup vs IP-stride at same MTPS)\n\n";
         dramRatesTable(ms, "prefetcher", os);
     }},

    // Figure 17: multi-level combinations under the same DRAM rates.
    {"fig17_dram_bw_multilevel",
     [](const Opt &opt) {
         return dramRates(opt, {"ip-stride", "berti", "mlop+bingo",
                                "berti+spp-ppf"});
     },
     [](const Opt &, const Matrices &ms, std::ostream &os) {
         os << "Figure 17: multi-level prefetching under constrained "
               "DRAM bandwidth\n\n";
         dramRatesTable(ms, "configuration", os);
     }},

    // Figure 18: CloudSuite speedups with the per-workload breakdown.
    {"fig18_cloudsuite",
     [](const Opt &opt) {
         return Matrices{grid(opt, suiteWorkloads("cloud"),
                              {"ip-stride", "mlop", "ipcp", "berti",
                               "mlop+bingo", "berti+spp-ppf"})};
     },
     [](const Opt &, const Matrices &ms, std::ostream &os) {
         const Matrix &m = ms[0];
         os << "Figure 18: CloudSuite speedup vs IP-stride\n\n";
         TextTable t({"workload", "MLOP", "IPCP", "Berti", "MLOP+Bingo",
                      "Berti+SPP-PPF", "L1D-MPKI", "L1I-MPKI"});
         for (std::size_t i = 0; i < m.workloads.size(); ++i) {
             const SimResult &base = m.results[0][i];
             std::vector<std::string> row = {m.workloads[i].name};
             for (std::size_t c = 1; c < m.columns.size(); ++c)
                 row.push_back(TextTable::num(m.results[c][i].ipc / base.ipc));
             auto instr = base.roi.core.instructions;
             row.push_back(TextTable::num(base.roi.l1d.mpki(instr), 1));
             row.push_back(TextTable::num(base.roi.l1i.mpki(instr), 1));
             t.addRow(row);
         }
         std::vector<std::string> row = {"geomean"};
         for (std::size_t c = 1; c < m.columns.size(); ++c) {
             row.push_back(TextTable::num(suiteSpeedup(
                 m.workloads, m.results[c], m.results[0], "cloud")));
         }
         row.insert(row.end(), {"", ""});
         t.addRow(row);
         t.print(os);
     }},

    // Figure 19: MISB at L2 on CloudSuite and on SPEC+GAP.
    {"fig19_misb",
     [](const Opt &opt) {
         const std::vector<std::string> specs = {
             "ip-stride",  "mlop",       "ipcp",       "berti",
             "mlop+misb", "ipcp+misb", "berti+misb", "berti+spp-ppf"};
         return Matrices{grid(opt, suiteWorkloads("cloud"), specs),
                         grid(opt, specGapWorkloads(), specs)};
     },
     [](const Opt &, const Matrices &ms, std::ostream &os) {
         const Matrix &cloud = ms[0];
         const Matrix &specgap = ms[1];
         os << "Figure 19: speedup with and without MISB at L2 (vs "
               "IP-stride)\n\n";
         TextTable t({"configuration", "cloud", "spec+gap"});
         for (std::size_t c = 1; c < cloud.columns.size(); ++c) {
             t.addRow({cloud.columns[c].label,
                       TextTable::num(suiteSpeedup(cloud.workloads,
                                                   cloud.results[c],
                                                   cloud.results[0],
                                                   "cloud")),
                       TextTable::num(suiteSpeedup(specgap.workloads,
                                                   specgap.results[c],
                                                   specgap.results[0],
                                                   ""))});
         }
         t.print(os);
     }},

    {"fig20_multicore", {}, fig20Report},

    // Figure 21: the (L1, L2) coverage watermark grid on the
    // sensitivity subset; the paper's choice is (65%, 35%).
    {"fig21_watermarks",
     [](const Opt &opt) {
         Matrix m = grid(opt, sensitivitySubset(), {"ip-stride"});
         for (double l1 : {0.35, 0.50, 0.65, 0.80, 0.95}) {
             for (double l2 : {0.20, 0.35, 0.50}) {
                 BertiConfig cfg;
                 cfg.l1Watermark = l1;
                 cfg.l2Watermark = std::min(l2, l1);
                 m.columns.push_back(bertiColumn("berti", cfg));
             }
         }
         return Matrices{m};
     },
     [](const Opt &, const Matrices &ms, std::ostream &os) {
         const Matrix &m = ms[0];
         os << "Figure 21: speedup vs IP-stride for L1/L2 coverage "
               "watermarks (paper's choice: L1=65%, L2=35%)\n\n";
         TextTable t({"L1-watermark", "L2=20%", "L2=35%", "L2=50%"});
         std::size_t c = 1;
         for (double l1 : {0.35, 0.50, 0.65, 0.80, 0.95}) {
             std::vector<std::string> row = {TextTable::pct(l1, 0)};
             for (int l2 = 0; l2 < 3; ++l2) {
                 row.push_back(TextTable::num(
                     speedupGeomean(m.results[c++], m.results[0])));
             }
             t.addRow(row);
         }
         t.print(os);
     }},

    // Figure 22: Berti's table sizes scaled from 0.25x to 4x.
    {"fig22_table_sizes",
     [](const Opt &opt) {
         Matrix m = grid(opt, sensitivitySubset(), {"ip-stride"});
         for (double s : {0.25, 0.5, 1.0, 2.0, 4.0}) {
             auto scaled = [s](unsigned v) {
                 return std::max(1u, static_cast<unsigned>(v * s));
             };
             BertiConfig hist, dtab, ndel;
             hist.historySets = scaled(8);
             dtab.deltaTableEntries = scaled(16);
             ndel.deltasPerEntry = scaled(16);
             for (const BertiConfig &cfg : {hist, dtab, ndel})
                 m.columns.push_back(bertiColumn("berti", cfg));
         }
         return Matrices{m};
     },
     [](const Opt &, const Matrices &ms, std::ostream &os) {
         const Matrix &m = ms[0];
         os << "Figure 22: speedup vs size of the Berti tables "
               "(1x = paper configuration)\n\n";
         TextTable t({"scale", "history-table", "table-of-deltas",
                      "num-deltas"});
         std::size_t c = 1;
         for (double s : {0.25, 0.5, 1.0, 2.0, 4.0}) {
             std::vector<std::string> row = {TextTable::num(s, 2) + "x"};
             for (int dim = 0; dim < 3; ++dim) {
                 row.push_back(TextTable::num(
                     speedupGeomean(m.results[c++], m.results[0])));
             }
             t.addRow(row);
         }
         t.print(os);
     }},

    // Figure 23: hybrid(...) compositions next to their static
    // children; BERTI_TRACE_WORKLOADS adds a third suite column.
    {"fig23_hybrids",
     [](const Opt &opt) {
         const std::vector<std::string> specs = {
             "none",
             "berti",
             "cmc",
             "markov",
             "hybrid(berti,cmc)",
             "hybrid(berti,cmc;select=ip)",
             "hybrid(berti,cmc;select=duel)",
             "hybrid(berti,markov;select=ip)",
             "hybrid(berti,markov;select=duel)",
         };
         Matrices ms = {grid(opt, suiteWorkloads("cloud"), specs),
                        grid(opt, specGapWorkloads(), specs)};
         if (auto extra = extraTraceWorkloads(opt); !extra.empty())
             ms.push_back(grid(opt, std::move(extra), specs));
         return ms;
     },
     [](const Opt &, const Matrices &ms, std::ostream &os) {
         os << "Figure 23: hybrid composition vs static children "
               "(speedup vs no prefetching)\n\n";
         std::vector<std::string> header = {"configuration", "cloud",
                                            "spec+gap"};
         if (ms.size() > 2)
             header.push_back("file traces");
         header.push_back("KB");
         TextTable t(header);
         for (std::size_t c = 1; c < ms[0].columns.size(); ++c) {
             const std::string &name = ms[0].columns[c].label;
             std::vector<std::string> row = {name};
             for (std::size_t i = 0; i < ms.size(); ++i) {
                 row.push_back(TextTable::num(
                     suiteSpeedup(ms[i].workloads, ms[i].results[c],
                                  ms[i].results[0], i == 0 ? "cloud" : "")));
             }
             row.push_back(TextTable::num(storageKb(name)));
             t.addRow(row);
         }
         t.print(os);
     }},

    // Figure 24: Berti's timeliness across every registered memory
    // backend (DDR4, DDR5, LPDDR5, HBM).
    {"fig24_mem_backends",
     [](const Opt &opt) {
         Matrices ms;
         for (const std::string &model : mem::knownBackendModels()) {
             Matrix m = grid(opt, specGapAndTraces(opt),
                             {"none", "ip-stride", "berti"});
             m.params.memBackend = "dram:" + model;
             m.variant = mem::parseBackendSpec(m.params.memBackend).canonical;
             ms.push_back(std::move(m));
         }
         return ms;
     },
     [](const Opt &, const Matrices &ms, std::ostream &os) {
         os << "Figure 24: Berti vs memory backend (timeliness "
               "sensitivity across timing models)\n\n";
         TextTable t({"backend", "prefetcher", "speedup", "accuracy",
                      "late%", "read lat", "row hit%"});
         for (const Matrix &m : ms) {
             for (std::size_t c = 1; c < m.columns.size(); ++c) {
                 // Suite-aggregate DRAM behaviour under this prefetcher:
                 // mean read latency and row-buffer locality.
                 double lat_sum = 0, lat_n = 0, hits = 0, acts = 0;
                 for (const SimResult &r : m.results[c]) {
                     const auto &d = r.roi.dram;
                     lat_sum += static_cast<double>(d.readLatencySum);
                     lat_n += static_cast<double>(d.readLatencyCount);
                     hits += static_cast<double>(d.rowHits);
                     acts += static_cast<double>(d.rowHits + d.rowMisses +
                                                 d.rowConflicts);
                 }
                 const auto &r = m.results[c];
                 t.addRow(
                     {m.variant, m.columns[c].label,
                      TextTable::num(suiteSpeedup(m.workloads, r,
                                                  m.results[0], "")),
                      TextTable::num(suiteAccuracy(m.workloads, r, "")),
                      TextTable::num(100.0 *
                                     suiteLateFraction(m.workloads, r, "")),
                      TextTable::num(lat_n > 0 ? lat_sum / lat_n : 0.0),
                      TextTable::num(acts > 0 ? 100.0 * hits / acts : 0.0)});
             }
         }
         t.print(os);
     }},

    // Section IV-J: the latency-counter width (4-bit counters overflow
    // on every DRAM-latency fill).
    {"abl_latency_bits",
     [](const Opt &opt) {
         Matrix m = grid(opt, specGapWorkloads(), {"ip-stride"});
         for (unsigned bits : {4u, 12u, 32u}) {
             BertiConfig cfg;
             cfg.latencyBits = bits;
             m.columns.push_back(
                 bertiColumn("berti-lat" + std::to_string(bits), cfg));
         }
         return Matrices{m};
     },
     [](const Opt &, const Matrices &ms, std::ostream &os) {
         os << "Ablation (section IV-J): latency-counter width\n\n";
         TextTable t({"latency-bits", "SPEC17", "GAP", "all"});
         speedupRows(t, ms[0], {"4", "12", "32"});
         t.print(os);
     }},

    // Section IV-J: issuing across 4 KB pages (training unchanged).
    {"abl_cross_page",
     [](const Opt &opt) {
         Matrix m = grid(opt, specGapWorkloads(), {"ip-stride"});
         for (bool cross : {true, false}) {
             BertiConfig cfg;
             cfg.crossPage = cross;
             m.columns.push_back(
                 bertiColumn(cross ? "berti" : "berti-nocross", cfg));
         }
         return Matrices{m};
     },
     [](const Opt &, const Matrices &ms, std::ostream &os) {
         os << "Ablation (section IV-J): cross-page prefetching\n\n";
         TextTable t({"configuration", "SPEC17", "GAP", "all"});
         speedupRows(t, ms[0], {"cross-page (default)", "page-bounded"});
         t.print(os);
     }},

    // Section V: Pythia on top of Berti (paper: under 1%).
    {"abl_pythia",
     [](const Opt &opt) {
         return Matrices{grid(opt, specGapWorkloads(),
                              {"ip-stride", "none+pythia", "berti",
                               "berti+pythia"})};
     },
     [](const Opt &, const Matrices &ms, std::ostream &os) {
         const Matrix &m = ms[0];
         os << "Related-work check (section V): Pythia on top of "
               "Berti\n\n";
         TextTable t({"configuration", "SPEC17", "GAP", "all"});
         speedupRows(t, m);
         t.print(os);
         double marginal =
             suiteSpeedup(m.workloads, m["berti+pythia"], m["berti"], "");
         os << "\nMarginal gain of Pythia on top of Berti: "
            << TextTable::pct(marginal - 1.0) << " (paper: less than 1%)\n";
     }},

    // Berti without each pillar: timeliness, then selectivity.
    {"abl_mechanisms",
     [](const Opt &opt) {
         BertiConfig no_timely;
         no_timely.requireTimely = false;
         BertiConfig no_select;
         no_select.issueAllDeltas = true;
         Matrix m = grid(opt, specGapWorkloads(), {"ip-stride"});
         m.columns.push_back(bertiColumn("berti (full)", BertiConfig{}));
         m.columns.push_back(bertiColumn("no-timeliness", no_timely));
         m.columns.push_back(bertiColumn("no-selectivity", no_select));
         return Matrices{m};
     },
     [](const Opt &, const Matrices &ms, std::ostream &os) {
         const Matrix &m = ms[0];
         os << "Mechanism ablation: Berti without each of its "
               "pillars (speedup vs IP-stride / L1D accuracy)\n\n";
         TextTable t({"variant", "speedup-spec", "speedup-gap",
                      "speedup-all", "accuracy-spec", "accuracy-gap"});
         for (std::size_t c = 1; c < m.columns.size(); ++c) {
             auto row = speedupRow(m.columns[c].label, m.workloads,
                                   m.results[c], m.results[0]);
             row.push_back(TextTable::pct(
                 suiteAccuracy(m.workloads, m.results[c], "spec")));
             row.push_back(TextTable::pct(
                 suiteAccuracy(m.workloads, m.results[c], "gap")));
             t.addRow(row);
         }
         t.print(os);
     }},

    // Heritage: per-IP deltas (this paper) vs the per-page context of
    // the DPC-3 precursor.
    {"abl_per_page",
     [](const Opt &opt) {
         Matrix m = grid(opt, specGapWorkloads(), {"ip-stride"});
         for (bool per_page : {false, true}) {
             BertiConfig cfg;
             cfg.perPage = per_page;
             m.columns.push_back(
                 bertiColumn(per_page ? "berti-page" : "berti-ip", cfg));
         }
         return Matrices{m};
     },
     [](const Opt &, const Matrices &ms, std::ostream &os) {
         const Matrix &m = ms[0];
         os << "Heritage: per-IP (MICRO 2022) vs per-page (DPC-3) "
               "delta context\n\n";
         TextTable t({"context", "speedup-spec", "speedup-gap",
                      "speedup-all", "accuracy-spec+gap"});
         for (std::size_t c = 1; c < m.columns.size(); ++c) {
             auto row = speedupRow(c == 2 ? "per-page (DPC-3)"
                                          : "per-IP (paper)",
                                   m.workloads, m.results[c], m.results[0]);
             row.push_back(TextTable::pct(
                 suiteAccuracy(m.workloads, m.results[c], "")));
             t.addRow(row);
         }
         t.print(os);
     }},

    {"abl_l1i_prefetch", {}, ablL1iReport},

    // Section V: the related-work prefetchers the paper does not plot.
    {"related_work",
     [](const Opt &opt) {
         return Matrices{grid(opt, specGapWorkloads(),
                              {"ip-stride", "stream", "none+sms",
                               "none+vldp", "none+misb", "none+pythia",
                               "berti"})};
     },
     [](const Opt &, const Matrices &ms, std::ostream &os) {
         const Matrix &m = ms[0];
         os << "Related work (section V): speedup vs IP-stride and "
               "L1D accuracy\n\n";
         TextTable t({"configuration", "speedup-spec", "speedup-gap",
                      "speedup-all", "storage-KB"});
         for (std::size_t c = 1; c < m.columns.size(); ++c) {
             auto row = speedupRow(m.columns[c].label, m.workloads,
                                   m.results[c], m.results[0]);
             row.push_back(TextTable::num(storageKb(m.columns[c].label), 2));
             t.addRow(row);
         }
         t.print(os);
     }},
    };
}

} // namespace berti::bench
