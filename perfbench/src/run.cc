#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>

#include "bench.hh"
#include "energy/energy_model.hh"
#include "harness/machine.hh"
#include "harness/result_store.hh"
#include "harness/supervisor.hh"
#include "layers.hh"
#include "mem/backend_registry.hh"
#include "obs/export.hh"

namespace perfbench
{

using namespace berti;

namespace
{

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------- setup

/** What every workload resolves before its first cell. */
struct Setup
{
    std::vector<Workload> pool;
    std::map<std::string, PrefetcherSpec> specs;
    Reference ref;
    std::vector<Mix> mixes;   //!< this seed's mixes
    double graphBuildS = 0.0;
};

std::vector<std::string>
allSpecNames()
{
    std::vector<std::string> names;
    std::set<std::string> seen;
    auto addAll = [&](const std::vector<std::string> &v) {
        for (const auto &n : v) {
            if (seen.insert(n).second)
                names.push_back(n);
        }
    };
    addAll(matrixSpecs());
    addAll(mixSpecs());
    for (const Figure &f : sweepFigures())
        addAll(f.specs);
    return names;
}

Setup
buildSetup(const Options &opt)
{
    Setup s;
    s.pool = specGapWorkloads();
    for (const Workload &w : s.pool) {
        // The first GAP generator on each graph synthesizes the graph
        // into the registry's shared cache.
        auto t0 = Clock::now();
        w.make();
        if (w.suite == "gap")
            s.graphBuildS += secondsSince(t0);
    }
    for (const std::string &name : allSpecNames())
        s.specs.emplace(name, makeSpec(name));
    s.ref = Reference::load(opt.referencePath);
    s.mixes = mixesForSeed(opt.seed, s.pool.size());
    return s;
}

/**
 * One set-up in a forked child, so the shared graph cache starts empty
 * as it does in a fresh process. Called before any thread exists.
 */
double
setupInChild(const Options &opt)
{
    int fds[2];
    if (pipe(fds) != 0)
        throw std::runtime_error("pipe failed");
    pid_t pid = fork();
    if (pid < 0)
        throw std::runtime_error("fork failed");
    if (pid == 0) {
        close(fds[0]);
        double elapsed = -1.0;
        try {
            auto t0 = Clock::now();
            Setup s = buildSetup(opt);
            elapsed = secondsSince(t0);
        } catch (...) {
        }
        ssize_t n = write(fds[1], &elapsed, sizeof elapsed);
        _exit(n == static_cast<ssize_t>(sizeof elapsed) && elapsed >= 0.0
                  ? 0
                  : 1);
    }
    close(fds[1]);
    double elapsed = -1.0;
    ssize_t n = read(fds[0], &elapsed, sizeof elapsed);
    close(fds[0]);
    int status = 0;
    waitpid(pid, &status, 0);
    if (n != static_cast<ssize_t>(sizeof elapsed) || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0 || elapsed < 0.0) {
        throw std::runtime_error("set-up in a child process failed");
    }
    return elapsed;
}

// ---------------------------------------------------------- traced runs

/** The machine simulate() and simulateMix() build (experiment.cc's
 *  machineConfigFor for default SimParams extras). */
MachineConfig
benchMachineConfig(const PrefetcherSpec &spec, const SimParams &params,
                   unsigned cores)
{
    MachineConfig cfg = MachineConfig::sunnyCove(cores);
    mem::ParsedBackend backend = mem::parseBackendSpec(params.memBackend);
    cfg.dram = backend.channel;
    cfg.memBackend = backend.sel;
    if (params.dramMtps != kDefaultDramMtps)
        cfg.dram.mtps = params.dramMtps;
    cfg.l1dPrefetcher = spec.l1d;
    cfg.l2Prefetcher = spec.l2;
    return cfg;
}

SimResult
finishResult(const RunStats &roi)
{
    SimResult r;
    r.roi = roi;
    r.ipc = roi.core.ipc();
    r.energy = EnergyModel{}.evaluate(roi);
    return r;
}

void
addMachineCounts(const Machine &m, unsigned cores, Counters &out)
{
    obs::MetricsSnapshot snap = m.metricsSnapshot();
    for (unsigned c = 0; c < cores; ++c) {
        std::string p = "c" + std::to_string(c) + ".";
        for (const char *f :
             {"l1d.demand_accesses", "l1d.demand_misses",
              "l1d.prefetch_issued", "l1d.prefetch_dropped_full",
              "l2.demand_accesses"}) {
            out[std::string("cache.") + f] += snap.counter(p + f);
        }
    }
    out["cache.llc.demand_accesses"] += snap.counter("llc.demand_accesses");
    out["cache.llc.writebacks"] += snap.counter("llc.writebacks");
    out["dram.reads"] += snap.counter("dram.reads");
    out["dram.writes"] += snap.counter("dram.writes");
}

} // namespace

void
MachineTally::add(const MachineTally &o)
{
    constructS += o.constructS;
    runS += o.runS;
    cycles += o.cycles;
    skipped += o.skipped;
    instructions += o.instructions;
    for (const auto &[k, v] : o.counts)
        counts[k] += v;
}

std::vector<SimResult>
tracedSimulate(const std::vector<Workload> &mix, const PrefetcherSpec &spec,
               const SimParams &params, LayerSink *sink, MachineTally *mt)
{
    const unsigned cores = static_cast<unsigned>(mix.size());
    MachineConfig cfg =
        benchMachineConfig(tracedSpec(spec, sink), params, cores);
    cfg.memBackendHook = tracedBackendFactory(cfg, sink);

    std::vector<std::unique_ptr<TraceGenerator>> gens;
    std::vector<TraceGenerator *> gen_ptrs;
    for (const Workload &w : mix) {
        gens.push_back(std::make_unique<TracedGen>(w.make(), sink));
        gen_ptrs.push_back(gens.back().get());
    }

    auto t0 = Clock::now();
    Machine machine(cfg, gen_ptrs);
    auto t1 = Clock::now();
    machine.run(params.warmupInstructions);
    std::vector<SimResult> out;
    if (cores == 1) {
        RunStats start = machine.liveStats(0);
        machine.run(params.measureInstructions);
        out.push_back(finishResult(machine.liveStats(0).diff(start)));
    } else {
        std::vector<RunStats> start;
        for (unsigned c = 0; c < cores; ++c)
            start.push_back(machine.coreSnapshot(c));
        machine.run(params.measureInstructions);
        for (unsigned c = 0; c < cores; ++c) {
            out.push_back(
                finishResult(machine.coreSnapshot(c).diff(start[c])));
        }
    }
    auto t2 = Clock::now();

    MachineTally t;
    t.constructS = std::chrono::duration<double>(t1 - t0).count();
    t.runS = std::chrono::duration<double>(t2 - t1).count();
    t.cycles = machine.cycle();
    t.skipped = machine.skippedCycles();
    for (unsigned c = 0; c < cores; ++c)
        t.instructions += machine.liveStats(c).core.instructions;
    addMachineCounts(machine, cores, t.counts);
    mt->add(t);
    return out;
}

namespace
{

// --------------------------------------------------------------- passes

/** One request of a pass and what came back. */
struct CellRecord
{
    std::string refKey;    //!< reference key
    std::string snapKey;   //!< identity across untraced/traced passes
    std::vector<std::size_t> poolIdx;
    std::string spec;
    bool ok = false;
    std::string error;
    std::vector<SimResult> results;
};

struct PassData
{
    double wallS = 0.0;
    double cpuS = 0.0;
    std::vector<CellRecord> cells;
    std::map<std::string, double> cellSeconds;
    // harness / obs (figure-sweep)
    std::map<std::string, double> callS;
    double exportS = 0.0;
    std::uint64_t bytesWritten = 0;
    std::size_t computed = 0;
    std::size_t fromStore = 0;
    // traced only
    MachineTally machine;
    LayerTally layers;
};

std::string
sanitizeLabel(const std::string &label)
{
    // tools/sweep_tool.cpp's sidecar naming.
    std::string out;
    for (char c : label) {
        bool keep = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '.' ||
                    c == '_';
        out.push_back(keep ? c : '-');
    }
    return out.empty() ? std::string("unnamed") : out;
}

class Bench
{
  public:
    Bench(const Options &o, Setup &s, unsigned j)
        : opt(o), setup(s), jobs(j)
    {
    }

    /** Run one pass of the workload; traced passes use the decorators. */
    PassData
    runPass(unsigned passNo, bool traced)
    {
        PassData pass;
        sink.reset();
        const std::string dir = opt.workDir + "/" +
                                workloadName(opt.workload) + "-" +
                                std::to_string(getpid()) + "-pass" +
                                std::to_string(passNo);
        double cpu0 = cpuSeconds();
        auto t0 = Clock::now();
        switch (opt.workload) {
          case WorkloadKind::L1dMatrix:
            l1dPass(pass, traced);
            break;
          case WorkloadKind::Mix4Shared:
            mixPass(pass, traced);
            break;
          case WorkloadKind::FigureSweep:
            sweepPass(pass, traced, dir);
            break;
        }
        pass.wallS = secondsSince(t0);
        pass.cpuS = cpuSeconds() - cpu0;
        pass.layers = sink.total();
        // The pass's store and sidecars are not part of the workload.
        std::filesystem::remove_all(dir);
        return pass;
    }

    /** Requests per pass. */
    std::size_t
    requestsPerPass() const
    {
        switch (opt.workload) {
          case WorkloadKind::L1dMatrix:
            return setup.pool.size() * matrixSpecs().size();
          case WorkloadKind::Mix4Shared:
            return kMixes * mixSpecs().size();
          case WorkloadKind::FigureSweep: {
            std::size_t n = 0;
            for (const Figure &f : sweepFigures())
                n += f.specs.size() * setup.pool.size();
            return n;
          }
        }
        return 0;
    }

    /** Generators per cell (cores of the simulated machine). */
    unsigned
    generatorsPerCell() const
    {
        return opt.workload == WorkloadKind::Mix4Shared ? 4 : 1;
    }

  private:
    template <typename Fn>
    void
    runCell(PassData &pass, CellRecord rec, Fn simulateFn)
    {
        auto t0 = Clock::now();
        try {
            rec.results = simulateFn();
            rec.ok = true;
        } catch (const std::exception &e) {
            rec.error = e.what();
        }
        pass.cellSeconds[rec.snapKey] = secondsSince(t0);
        pass.cells.push_back(std::move(rec));
    }

    void
    l1dPass(PassData &pass, bool traced)
    {
        const SimParams params = singleParams();
        for (const std::string &spec : matrixSpecs()) {
            const PrefetcherSpec &ps = setup.specs.at(spec);
            for (std::size_t i = 0; i < setup.pool.size(); ++i) {
                const Workload &w = setup.pool[i];
                CellRecord rec;
                rec.refKey = rec.snapKey = singleKey(spec, w.name);
                rec.poolIdx = {i};
                rec.spec = spec;
                runCell(pass, std::move(rec), [&] {
                    if (traced)
                        return tracedSimulate({w}, ps, params, &sink,
                                              &pass.machine);
                    return std::vector<SimResult>{simulate(w, ps, params)};
                });
            }
        }
    }

    void
    mixPass(PassData &pass, bool traced)
    {
        const SimParams params = mixParams();
        for (const Mix &m : setup.mixes) {
            std::vector<Workload> mix;
            std::vector<std::string> names;
            for (std::size_t idx : m) {
                mix.push_back(setup.pool[idx]);
                names.push_back(setup.pool[idx].name);
            }
            for (const std::string &spec : mixSpecs()) {
                CellRecord rec;
                rec.refKey = rec.snapKey = mixKey(spec, names);
                rec.poolIdx = m;
                rec.spec = spec;
                const PrefetcherSpec &ps = setup.specs.at(spec);
                runCell(pass, std::move(rec), [&] {
                    if (traced)
                        return tracedSimulate(mix, ps, params, &sink,
                                              &pass.machine);
                    return simulateMix(mix, ps, params);
                });
            }
        }
    }

    void
    sweepPass(PassData &pass, bool traced, const std::string &dir)
    {
        const SimParams params = singleParams();

        std::vector<Workload> wls;
        for (const Workload &w : setup.pool)
            wls.push_back(traced ? tracedWorkload(w, &sink) : w);

        // Computed-cell host time: from the supervisor's pre-attempt
        // hook to the pool's completion callback on the same worker.
        struct Open
        {
            bool active = false;
            std::string key;
            Clock::time_point start;
        };
        static thread_local Open open;
        std::mutex cellMutex;

        harness::ResultStore store(dir + "/store");
        harness::SupervisorConfig cfg;
        cfg.store = &store;
        cfg.jobs = jobs;
        cfg.preAttempt = [](const std::string &workload,
                            const std::string &spec, unsigned attempt) {
            if (attempt == 1) {
                open.active = true;
                open.key = singleKey(spec, workload);
                open.start = Clock::now();
            }
        };
        cfg.progress = [&](std::size_t, std::size_t) {
            if (!open.active)
                return;
            open.active = false;
            double s = secondsSince(open.start);
            std::lock_guard<std::mutex> lock(cellMutex);
            pass.cellSeconds[open.key] = s;
        };

        for (const Figure &fig : sweepFigures()) {
            std::vector<PrefetcherSpec> specs;
            for (const std::string &name : fig.specs) {
                const PrefetcherSpec &ps = setup.specs.at(name);
                specs.push_back(traced ? tracedSpec(ps, &sink) : ps);
            }
            auto c0 = Clock::now();
            harness::SweepReport report =
                harness::runSupervisedMatrix(wls, specs, params, cfg);
            pass.callS[fig.name] = secondsSince(c0);
            pass.computed += report.computed;
            pass.fromStore += report.fromStore;

            // sweep_tool --out: one resultSnapshot sidecar per cell.
            auto e0 = Clock::now();
            const std::string out = dir + "/out/" + fig.name + "/";
            for (const auto &row : report.cells) {
                for (const harness::CellResult &cell : row) {
                    if (!cell.ok())
                        continue;
                    std::string json =
                        obs::toJson(resultSnapshot(cell.result));
                    obs::writeFile(out + sanitizeLabel(cell.spec) + "__" +
                                       sanitizeLabel(cell.workload) +
                                       ".json",
                                   json);
                    pass.bytesWritten += json.size();
                }
            }
            pass.exportS += secondsSince(e0);

            for (std::size_t s = 0; s < specs.size(); ++s) {
                for (std::size_t w = 0; w < wls.size(); ++w) {
                    const harness::CellResult &cell = report.cells[s][w];
                    CellRecord rec;
                    rec.refKey = singleKey(cell.spec, cell.workload);
                    rec.snapKey = std::string(fig.name) + "/" + rec.refKey;
                    rec.poolIdx = {w};
                    rec.spec = cell.spec;
                    rec.ok = cell.ok();
                    if (rec.ok) {
                        rec.results.push_back(cell.result);
                    } else {
                        rec.error = std::string(cellOutcomeName(
                                        cell.outcome)) +
                                    ": " + cell.error.reason;
                    }
                    pass.cells.push_back(std::move(rec));
                }
            }
        }
    }

    const Options &opt;
    Setup &setup;
    unsigned jobs;
    LayerSink sink;
};

// --------------------------------------------------------------- checks

std::string
snapshotOf(const CellRecord &rec)
{
    std::string s;
    for (const SimResult &r : rec.results)
        s += obs::toJson(resultSnapshot(r));
    return s;
}

Counters
countersOf(const CellRecord &rec)
{
    if (rec.results.size() == 1)
        return referenceCounters(rec.results[0]);
    Counters all;
    for (std::size_t c = 0; c < rec.results.size(); ++c) {
        Counters one =
            referenceCounters(rec.results[c], "c" + std::to_string(c) + ".");
        all.insert(one.begin(), one.end());
    }
    return all;
}

/** Reference-check every cell of a pass; returns the failures. */
std::vector<std::string>
checkPass(const PassData &pass, const Reference &ref,
          const std::map<std::string, std::string> *untracedSnapshots)
{
    std::vector<std::string> failures;
    for (const CellRecord &rec : pass.cells) {
        if (!rec.ok) {
            failures.push_back(rec.snapKey + ": " + rec.error);
            continue;
        }
        std::string diff = ref.check(rec.refKey, countersOf(rec));
        if (!diff.empty()) {
            failures.push_back("reference mismatch " + diff);
            continue;
        }
        if (untracedSnapshots) {
            auto it = untracedSnapshots->find(rec.snapKey);
            if (it == untracedSnapshots->end() ||
                it->second != snapshotOf(rec)) {
                failures.push_back(rec.snapKey +
                                   ": traced snapshot differs from the "
                                   "untraced run's");
            }
        }
    }
    return failures;
}

// ---------------------------------------------------------- model view

struct ModelView
{
    double bertiVsIpStrideSpec = 0.0;
    double bertiVsIpStrideGap = 0.0;
    double bertiVsIpcpAll = 0.0;
    double bertiAccuracy = 0.0;
};

/** Simulated figures of merit from one pass, for information. */
ModelView
modelView(const PassData &pass, const Setup &setup)
{
    // instance (workload, or mix slot) -> spec -> result
    std::map<std::string, std::map<std::string, const SimResult *>> by;
    std::map<std::string, std::string> suiteOf;
    for (const CellRecord &rec : pass.cells) {
        if (!rec.ok)
            continue;
        std::string mixPrefix;
        if (rec.results.size() > 1)
            mixPrefix = rec.refKey.substr(rec.refKey.find('/', 4) + 1) + "#";
        for (std::size_t c = 0; c < rec.results.size(); ++c) {
            const Workload &w = setup.pool[rec.poolIdx[c]];
            std::string inst = mixPrefix + std::to_string(c) + ":" + w.name;
            by[inst][rec.spec] = &rec.results[c];
            suiteOf[inst] = w.suite;
        }
    }
    auto geomeanRatio = [&](const std::string &test, const std::string &base,
                            const std::string &suite) {
        double logSum = 0.0;
        unsigned n = 0;
        for (const auto &[inst, specs] : by) {
            if (!suite.empty() && suiteOf[inst] != suite)
                continue;
            auto t = specs.find(test);
            auto b = specs.find(base);
            if (t == specs.end() || b == specs.end() || b->second->ipc <= 0)
                continue;
            logSum += std::log(t->second->ipc / b->second->ipc);
            ++n;
        }
        return n ? std::exp(logSum / n) : 0.0;
    };
    ModelView v;
    v.bertiVsIpStrideSpec = geomeanRatio("berti", "ip-stride", "spec");
    v.bertiVsIpStrideGap = geomeanRatio("berti", "ip-stride", "gap");
    v.bertiVsIpcpAll = geomeanRatio("berti", "ipcp", "");
    double useful = 0.0, fills = 0.0;
    for (const auto &[inst, specs] : by) {
        auto it = specs.find("berti");
        if (it == specs.end())
            continue;
        useful += static_cast<double>(it->second->roi.l1d.prefetchUseful);
        fills += static_cast<double>(it->second->roi.l1d.prefetchFills);
    }
    v.bertiAccuracy = fills > 0 ? std::min(1.0, useful / fills) : 0.0;
    return v;
}

// -------------------------------------------------------------- output

struct Metric
{
    std::string name;
    double value;
    std::string unit;
    std::string note;
    bool inResult;   //!< part of the final JSON line
};

void
printMetrics(const std::vector<Metric> &metrics)
{
    for (const Metric &m : metrics) {
        std::printf("  %-40s %16.6g %-8s %s\n", m.name.c_str(), m.value,
                    m.unit.c_str(), m.note.c_str());
    }
}

void
printResultLine(bool correct, std::size_t attempted, std::size_t failed,
                const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    bool first = true;
    for (const Metric &m : metrics) {
        if (!m.inResult)
            continue;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    first ? "" : ", ", m.name.c_str(), m.value,
                    m.unit.c_str());
        first = false;
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

std::string
fmt(const char *f, double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, f, v);
    return buf;
}

/** Per-layer metrics of the traced passes (per pass). */
std::vector<Metric>
layerMetrics(const Options &opt, const std::vector<PassData> &traced,
             double untracedPassS, const Setup &setup,
             const ModelView &model, std::size_t requestsPerPass,
             unsigned jobs, unsigned gensPerCell)
{
    const double passes = static_cast<double>(traced.size());
    LayerTally lt;
    MachineTally mt;
    double wall = 0.0, exportS = 0.0;
    double bytes = 0.0, computed = 0.0, fromStore = 0.0;
    std::map<std::string, double> callS;
    for (const PassData &p : traced) {
        lt.add(p.layers);
        mt.add(p.machine);
        wall += p.wallS;
        exportS += p.exportS;
        bytes += static_cast<double>(p.bytesWritten);
        computed += static_cast<double>(p.computed);
        fromStore += static_cast<double>(p.fromStore);
        for (const auto &[fig, s] : p.callS)
            callS[fig] += s;
    }
    const bool sweep = opt.workload == WorkloadKind::FigureSweep;
    if (!sweep)
        computed = static_cast<double>(requestsPerPass) * passes;

    auto perPass = [passes](double v) { return v / passes; };
    auto cnt = [&](std::uint64_t v) {
        return perPass(static_cast<double>(v));
    };
    std::vector<Metric> m;
    auto add = [&m](const std::string &name, double v,
                    const std::string &unit, bool inResult,
                    const std::string &note = "") {
        m.push_back({name, v, unit, note, inResult});
    };

    // trace
    const double traceSelf = lt.traceSelfNs * 1e-9;
    add("trace.next_calls", cnt(lt.nextCalls), "count", true);
    add("trace.self_s", perPass(traceSelf), "s", true);
    add("trace.ns_per_next", ratio(lt.traceSelfNs, lt.nextCalls), "ns",
        true);
    add("trace.graph_build_s", setup.graphBuildS, "s", true,
        "GAP graph synthesis during set-up");

    // prefetch
    double pfSelf = 0.0;
    for (int level = 0; level < 2; ++level) {
        const PrefetchTally &t = level ? lt.l2 : lt.l1d;
        const std::string p = level ? "prefetch.l2." : "prefetch.l1d.";
        const bool used = t.accessCalls + t.fillCalls > 0;
        pfSelf += t.selfNs * 1e-9;
        add(p + "access_calls", cnt(t.accessCalls), "count", true);
        add(p + "fill_calls", cnt(t.fillCalls), "count", true);
        // The L2 level has no prefetcher on two of the three workloads,
        // so its times are printed but not part of the result line.
        add(p + "self_s", perPass(t.selfNs * 1e-9), "s", level == 0,
            used ? "" : "n/a: no prefetcher at this level");
        add(p + "ns_per_call",
            ratio(t.selfNs, static_cast<double>(t.accessCalls + t.fillCalls)),
            "ns", level == 0);
        add(p + "issue_attempts", cnt(t.issueAttempts), "count", true);
        add(p + "issue_accepted", cnt(t.issueAccepted), "count", true);
        add(p + "issue_accept_ratio",
            ratio(static_cast<double>(t.issueAccepted),
                  static_cast<double>(t.issueAttempts)),
            "ratio", true);
    }

    // memory backend (no seam inside simulate(): n/a on figure-sweep)
    const std::string noHook =
        sweep ? "n/a: simulate() has no backend hook" : "";
    const double dramSelf = lt.dramSelfNs * 1e-9;
    add("dram.submit_read_calls", cnt(lt.submitReadCalls), "count", true,
        noHook);
    add("dram.submit_read_refused", cnt(lt.submitReadRefused), "count",
        true, noHook);
    add("dram.writeback_calls", cnt(lt.writebackCalls), "count", true,
        noHook);
    add("dram.tick_calls", cnt(lt.tickCalls), "count", true, noHook);
    add("dram.self_s", perPass(dramSelf), "s", false, noHook);

    // machine (Machines built by the benchmark: n/a on figure-sweep)
    const std::string noMachine =
        sweep ? "n/a: Machines are built inside simulate()" : "";
    const double machineSelf = mt.runS - traceSelf - pfSelf - dramSelf;
    const double activeCycles =
        static_cast<double>(mt.cycles - mt.skipped);
    add("machine.construct_s", perPass(mt.constructS), "s", false,
        noMachine);
    add("machine.run_s", perPass(mt.runS), "s", false, noMachine);
    add("machine.self_s", perPass(sweep ? 0.0 : machineSelf), "s", false,
        noMachine);
    add("machine.cycles", cnt(mt.cycles), "count", true, noMachine);
    add("machine.skipped_cycles", cnt(mt.skipped), "count", true,
        noMachine);
    add("machine.skip_frac",
        ratio(static_cast<double>(mt.skipped),
              static_cast<double>(mt.cycles)),
        "ratio", true, noMachine);
    add("machine.ns_per_cycle",
        sweep ? 0.0 : ratio(machineSelf * 1e9, activeCycles), "ns", false,
        noMachine);
    add("machine.kips",
        ratio(static_cast<double>(mt.instructions), mt.runS) / 1000.0,
        "kinstr/s", false, noMachine);
    for (const char *c :
         {"cache.l1d.demand_accesses", "cache.l1d.demand_misses",
          "cache.l1d.prefetch_issued", "cache.l1d.prefetch_dropped_full",
          "cache.l2.demand_accesses", "cache.llc.demand_accesses",
          "cache.llc.writebacks", "dram.reads", "dram.writes"}) {
        auto it = mt.counts.find(c);
        add(c, it == mt.counts.end() ? 0.0 : cnt(it->second), "count", true,
            noMachine);
    }

    // harness and export
    const double requested = static_cast<double>(requestsPerPass);
    double callWall = 0.0;
    for (const auto &[fig, s] : callS)
        callWall += s;
    const double spanWall = sweep ? callWall : wall;
    add("harness.cells_requested", requested, "count", true);
    add("harness.cells_computed", perPass(computed), "count", true);
    add("harness.cells_from_store", perPass(fromStore), "count", true);
    add("harness.store_hit_ratio", ratio(fromStore, computed + fromStore),
        "ratio", true);
    for (const Figure &f : sweepFigures()) {
        add(std::string("harness.call_s.") + f.name,
            perPass(callS[f.name]), "s", false,
            sweep ? "" : "n/a: figure-sweep only");
    }
    add("harness.worker_util",
        ratio(lt.generatorSpanNs * 1e-9 / gensPerCell, jobs * spanWall),
        "ratio", true, "generator spans / (workers x wall)");
    add("obs.export_s", perPass(exportS), "s", false,
        sweep ? "" : "n/a: figure-sweep only");
    add("obs.bytes_written", perPass(bytes), "bytes", true);

    // model (simulated values; unvalidated)
    add("model.speedup.berti_vs_ipstride.spec", model.bertiVsIpStrideSpec,
        "ratio", true, "paper 1.116");
    add("model.speedup.berti_vs_ipstride.gap", model.bertiVsIpStrideGap,
        "ratio", true, "paper 1.019");
    add("model.speedup.berti_vs_ipcp.all", model.bertiVsIpcpAll, "ratio",
        true, "paper 1.085");
    add("model.l1d_accuracy.berti", model.bertiAccuracy, "ratio", true,
        "paper 0.872");

    add("trace_overhead", ratio(perPass(wall), untracedPassS), "ratio", true,
        "traced / untraced wall per pass; wrapped Berti loses the "
        "PfDispatch::Berti static dispatch");
    return m;
}

} // namespace

int
runBenchmark(const Options &opt)
{
    namespace fs = std::filesystem;
    const unsigned jobs =
        opt.workload == WorkloadKind::FigureSweep
            ? std::max(1u, std::thread::hardware_concurrency())
            : 1u;
    std::printf("perfbench %s\n", hostFingerprint(opt, jobs).c_str());
    std::fflush(stdout);

    // ---- set-up: repeated in fresh child processes, then for real.
    std::vector<double> setupSamples;
    for (unsigned i = 1; i < kSetupRepeats; ++i)
        setupSamples.push_back(setupInChild(opt));
    auto s0 = Clock::now();
    Setup setup = buildSetup(opt);
    fs::create_directories(opt.workDir);
    setupSamples.push_back(secondsSince(s0));

    Bench bench(opt, setup, jobs);
    const std::size_t perPass = bench.requestsPerPass();

    // ---- timed phase: whole passes until the time is spent.
    std::vector<PassData> passes;
    double wall = 0.0;
    do {
        passes.push_back(bench.runPass(passes.size(), false));
        wall += passes.back().wallS;
    } while (wall < opt.seconds);

    std::vector<std::string> failures;
    std::map<std::string, std::string> untracedSnapshots;
    for (const PassData &p : passes) {
        auto f = checkPass(p, setup.ref, nullptr);
        failures.insert(failures.end(), f.begin(), f.end());
    }
    std::size_t attempted = passes.size() * perPass;

    std::vector<PassData> traced;
    if (opt.trace) {
        for (const CellRecord &rec : passes.back().cells) {
            if (rec.ok)
                untracedSnapshots[rec.snapKey] = snapshotOf(rec);
        }
        // Traced passes run up to three times slower; two keep a traced
        // run well inside its time limit.
        const std::size_t tracedPasses =
            std::min<std::size_t>(passes.size(), 2);
        for (std::size_t i = 0; i < tracedPasses; ++i)
            traced.push_back(bench.runPass(passes.size() + i, true));
        for (const PassData &p : traced) {
            auto f = checkPass(p, setup.ref, &untracedSnapshots);
            failures.insert(failures.end(), f.begin(), f.end());
        }
        attempted += traced.size() * perPass;
    }

    // ---- end-to-end metrics
    std::map<std::string, std::vector<double>> perCell;
    double cpu = 0.0;
    for (const PassData &p : passes) {
        cpu += p.cpuS;
        for (const auto &[k, s] : p.cellSeconds)
            perCell[k].push_back(s);
    }
    std::vector<double> cellMedians;
    for (const auto &[k, v] : perCell)
        cellMedians.push_back(median(v));
    Tail tail = tailOf(cellMedians);
    const double n = static_cast<double>(passes.size());
    const double failedFrac =
        static_cast<double>(failures.size()) / static_cast<double>(attempted);

    std::vector<Metric> e2e = {
        {"setup_s", median(setupSamples), "s",
         "median of " + std::to_string(setupSamples.size()) + " set-ups",
         !opt.trace},
        {"cells_per_s", static_cast<double>(perPass) * n / wall, "cells/s",
         std::to_string(passes.size()) + " passes x " +
             std::to_string(perPass) + " requests in " + fmt("%.2f s", wall),
         !opt.trace},
        {"cpu_s", cpu / n, "s", "user+sys per pass", !opt.trace},
        // Printed, not in the result line: their run-to-run spread on a
        // noisy host nears the largest bound a result line may carry.
        {"cell_s.p50", median(cellMedians), "s",
         "median over " + std::to_string(cellMedians.size()) +
             " cells (each the median of its passes)",
         false},
        {"cell_s.tail", tail.value, "s",
         fmt("p%.2f", tail.percentile) + " of " +
             std::to_string(tail.samples) + " cells",
         false},
        {"peak_rss_mb", peakRssMb(), "MiB", "", !opt.trace},
        {"failed_frac", failedFrac, "ratio",
         std::to_string(failures.size()) + "/" + std::to_string(attempted),
         false},
    };
    std::string passTimes;
    for (const PassData &p : passes)
        passTimes += fmt(" %.2f", p.wallS);
    std::printf("perfbench workload=%s seed=%llu passes=%zu "
                "requests/pass=%zu pass_s=%s%s\n",
                workloadName(opt.workload),
                static_cast<unsigned long long>(opt.seed), passes.size(),
                perPass, passTimes.c_str(), opt.trace ? " traced" : "");
    printMetrics(e2e);

    std::vector<Metric> all = e2e;
    if (opt.trace) {
        ModelView model = modelView(passes.front(), setup);
        std::vector<Metric> layers =
            layerMetrics(opt, traced, wall / n, setup, model, perPass, jobs,
                         bench.generatorsPerCell());
        std::printf("perfbench per-layer (traced, per pass)\n");
        printMetrics(layers);
        all.insert(all.end(), layers.begin(), layers.end());
    }

    for (std::size_t i = 0; i < failures.size() && i < 20; ++i)
        std::fprintf(stderr, "perfbench: FAILED %s\n", failures[i].c_str());
    if (failures.size() > 20) {
        std::fprintf(stderr, "perfbench: ... %zu more failures\n",
                     failures.size() - 20);
    }
    printResultLine(failures.empty(), attempted, failures.size(), all);
    return 0;
}

} // namespace perfbench
