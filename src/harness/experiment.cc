#include "harness/experiment.hh"

#include <charconv>
#include <cmath>

#include "mem/backend_registry.hh"
#include "prefetch/compose.hh"
#include "prefetch/registry.hh"
#include "sim/options.hh"
#include "sim/spec_parse.hh"
#include "verify/sim_error.hh"


namespace berti
{

namespace
{

std::uint64_t
bitsOf(const PrefetcherFactory &f)
{
    return f ? f()->storageBits() : 0;
}

/**
 * The level separator of a combo like "mlop+bingo" is the '+' at paren
 * depth 0 (the shared paren-aware splitter, so a '+' inside a
 * hybrid(...) child list belongs to the spec — none today, but the
 * split must not bite into one if the grammar grows it).
 */
std::size_t
topLevelPlus(const std::string &combo)
{
    return sim::findTopLevel(combo, '+');
}

PrefetcherSpec
makeSpecImpl(const std::string &combo, const sim::SimOptions *opt)
{
    PrefetcherSpec spec;
    std::string l1_name = combo;
    std::string l2_name;
    auto plus = topLevelPlus(combo);
    if (plus != std::string::npos) {
        l1_name = combo.substr(0, plus);
        l2_name = combo.substr(plus + 1);
    }
    auto resolve = [opt](const std::string &n) {
        return opt ? prefetch::make(n, *opt) : prefetch::make(n);
    };
    auto canon = [opt](const std::string &n) {
        if (!prefetch::isHybridSpec(n))
            return n;
        return prefetch::canonicalHybridSpec(
            n, opt ? prefetch::HybridConfig::fromOptions(*opt)
                   : prefetch::HybridConfig{});
    };
    spec.l1d = resolve(l1_name);
    spec.l2 = resolve(l2_name);
    spec.name = canon(l1_name);
    if (!l2_name.empty()) {
        spec.name += '+';
        spec.name += canon(l2_name);
    }
    spec.storageBits = bitsOf(spec.l1d) + bitsOf(spec.l2);
    return spec;
}

/** The Table II machine configured for one simulation call. */
MachineConfig
machineConfigFor(const PrefetcherSpec &spec, const SimParams &params,
                 unsigned cores)
{
    MachineConfig cfg = MachineConfig::sunnyCove(cores);
    // Resolve the memory backend ("" = dram:ddr4, the historical
    // machine), then layer the legacy DRAM-speed knob on top only when
    // it was actually moved off its default — Figures 16-17 sweep
    // dramMtps on the default backend exactly as before, while e.g.
    // "dram:hbm" keeps its preset rate under default params.
    mem::ParsedBackend backend = mem::parseBackendSpec(params.memBackend);
    cfg.dram = backend.channel;
    cfg.memBackend = backend.sel;
    if (params.dramMtps != kDefaultDramMtps)
        cfg.dram.mtps = params.dramMtps;
    cfg.l1dPrefetcher = spec.l1d;
    cfg.l2Prefetcher = spec.l2;
    if (params.forceAudit)
        cfg.audit.enabled = true;
    cfg.faults = params.faults;
    cfg.wallClockBudgetMs = params.wallClockBudgetMs;
    return cfg;
}

/** Derive ipc + energy from an already-filled ROI. */
SimResult
finishResult(RunStats roi)
{
    SimResult r;
    r.roi = roi;
    r.ipc = r.roi.core.ipc();
    r.energy = EnergyModel{}.evaluate(r.roi);
    return r;
}

/** A degenerate geometry measures nothing or overlaps its own windows;
 *  fail typed and loud instead of producing a silently-wrong sample. */
void
validateGeometry(const SampleGeometry &g)
{
    if (!g.enabled()) {
        throw verify::SimError(
            verify::ErrorKind::Config, "experiment",
            "sampled simulation requested with windowCount == 0");
    }
    if (g.windowMeasure == 0) {
        throw verify::SimError(
            verify::ErrorKind::Config, "experiment",
            "sampling windowMeasure must be positive — a window that "
            "measures 0 instructions contributes nothing");
    }
    if (g.stride() < g.windowWarmup + g.windowMeasure) {
        throw verify::SimError(
            verify::ErrorKind::Config, "experiment",
            "sampling stride " + std::to_string(g.stride()) +
                " is shorter than one window (warmup " +
                std::to_string(g.windowWarmup) + " + measure " +
                std::to_string(g.windowMeasure) +
                ") — windows would overlap");
    }
}

std::string
windowCheckpointPath(const std::string &dir, unsigned window)
{
    return dir + "/window-" + std::to_string(window) + ".ckpt";
}

/** Mean / sample stddev / 95% half-width over the per-window IPCs. */
void
computeDispersion(SampledResult &s)
{
    const std::size_t n = s.windows.size();
    if (n == 0)
        return;
    double sum = 0.0;
    for (const SimResult &w : s.windows)
        sum += w.ipc;
    s.ipcMean = sum / static_cast<double>(n);
    if (n > 1) {
        double sq = 0.0;
        for (const SimResult &w : s.windows) {
            double d = w.ipc - s.ipcMean;
            sq += d * d;
        }
        s.ipcStddev = std::sqrt(sq / static_cast<double>(n - 1));
        s.ipcCiHalfWidth =
            1.96 * s.ipcStddev / std::sqrt(static_cast<double>(n));
    }
}

/**
 * "berti" plus ";field=value" for every BertiConfig field that differs
 * from the default. Doubles print in their shortest round-trip form, so
 * two configs share a name only when every field is equal.
 */
std::string
bertiSpecName(const BertiConfig &cfg)
{
    // Every field must be listed below, or two configs that differ only
    // in the missing field would share result-store cells. The size
    // check trips when a field is added; list it, then update the size.
    static_assert(sizeof(BertiConfig) == 96,
                  "fold every BertiConfig field into bertiSpecName");
    const BertiConfig def;
    std::string name = "berti";
    auto add = [&name](const char *field, auto value, auto fallback) {
        if (value == fallback)
            return;
        char buf[32];
        auto res = std::to_chars(buf, buf + sizeof(buf), value);
        name += ';';
        name += field;
        name += '=';
        name.append(buf, res.ptr);
    };
    add("historySets", cfg.historySets, def.historySets);
    add("historyWays", cfg.historyWays, def.historyWays);
    add("deltaTableEntries", cfg.deltaTableEntries, def.deltaTableEntries);
    add("deltasPerEntry", cfg.deltasPerEntry, def.deltasPerEntry);
    add("maxTimelyPerSearch", cfg.maxTimelyPerSearch,
        def.maxTimelyPerSearch);
    add("phaseLength", cfg.phaseLength, def.phaseLength);
    add("l1Watermark", cfg.l1Watermark, def.l1Watermark);
    add("l2Watermark", cfg.l2Watermark, def.l2Watermark);
    add("replWatermark", cfg.replWatermark, def.replWatermark);
    add("warmupMinDeltas", cfg.warmupMinDeltas, def.warmupMinDeltas);
    add("warmupWatermark", cfg.warmupWatermark, def.warmupWatermark);
    add("maxSelectedDeltas", cfg.maxSelectedDeltas, def.maxSelectedDeltas);
    add("mshrWatermark", cfg.mshrWatermark, def.mshrWatermark);
    add("maxDeltaMagnitude", cfg.maxDeltaMagnitude, def.maxDeltaMagnitude);
    add("latencyBits", cfg.latencyBits, def.latencyBits);
    add("crossPage", int{cfg.crossPage}, int{def.crossPage});
    add("requireTimely", int{cfg.requireTimely}, int{def.requireTimely});
    add("issueAllDeltas", int{cfg.issueAllDeltas},
        int{def.issueAllDeltas});
    add("perPage", int{cfg.perPage}, int{def.perPage});
    return name;
}

} // namespace

PrefetcherSpec
makeSpec(const std::string &combo)
{
    return makeSpecImpl(combo, nullptr);
}

PrefetcherSpec
makeSpec(const std::string &combo, const sim::SimOptions &opt)
{
    return makeSpecImpl(combo, &opt);
}

PrefetcherSpec
makeBertiSpec(const BertiConfig &cfg)
{
    PrefetcherSpec spec;
    spec.name = bertiSpecName(cfg);
    spec.l1d = [cfg] { return std::make_unique<BertiPrefetcher>(cfg); };
    spec.storageBits = bitsOf(spec.l1d);
    return spec;
}

obs::MetricsSnapshot
resultSnapshot(const SimResult &result)
{
    obs::MetricsSnapshot snap = obs::snapshotOf(result.roi);
    snap.setGauge("ipc", result.ipc);
    obs::appendEnergy(snap, result.energy);
    return snap;
}

SimResult
resultFromSnapshot(const obs::MetricsSnapshot &snap)
{
    SimResult r;
    visitRunStatsCounters(r.roi,
                          [&snap](const std::string &name,
                                  std::uint64_t &value) {
                              value = snap.counter(name);
                          });
    r.ipc = r.roi.core.ipc();
    r.energy = EnergyModel{}.evaluate(r.roi);
    return r;
}

SimResult
simulate(const Workload &workload, const PrefetcherSpec &spec,
         const SimParams &params)
{
    if (params.sampling.enabled())
        return simulateSampled(workload, spec, params).aggregate;

    auto gen = workload.make();
    MachineConfig cfg = machineConfigFor(spec, params, 1);

    Machine machine(cfg, {gen.get()});
    machine.run(params.warmupInstructions);
    RunStats start = machine.liveStats(0);
    machine.run(params.measureInstructions);
    RunStats end = machine.liveStats(0);
    return finishResult(end.diff(start));
}

SampledResult
simulateSampled(const Workload &workload, const PrefetcherSpec &spec,
                const SimParams &params)
{
    const SampleGeometry &g = params.sampling;
    validateGeometry(g);

    auto gen = workload.make();
    MachineConfig cfg = machineConfigFor(spec, params, 1);
    Machine machine(cfg, {gen.get()});

    if (!g.checkpointDir.empty()) {
        std::string why;
        if (!machine.checkpointSupported(&why)) {
            throw verify::SimError(
                verify::ErrorKind::Checkpoint, "experiment",
                "sampling checkpointDir is set but this machine cannot "
                "checkpoint: " + why);
        }
    }

    machine.run(params.warmupInstructions);

    SampledResult out;
    out.windows.reserve(g.windowCount);
    out.windowStartInstruction.reserve(g.windowCount);
    const std::uint64_t window_span = g.windowWarmup + g.windowMeasure;
    for (unsigned k = 0; k < g.windowCount; ++k) {
        // Window boundary: persist the warm microarchitectural state so
        // this window can be re-simulated in isolation later.
        if (!g.checkpointDir.empty())
            machine.saveCheckpoint(windowCheckpointPath(g.checkpointDir, k));

        if (g.windowWarmup > 0)
            machine.run(g.windowWarmup);
        RunStats start = machine.liveStats(0);
        out.windowStartInstruction.push_back(start.core.instructions);
        machine.run(g.windowMeasure);
        RunStats end = machine.liveStats(0);
        out.windows.push_back(finishResult(end.diff(start)));

        // Simulated-but-unmeasured gap to the next window start.
        std::uint64_t gap = g.stride() - window_span;
        if (k + 1 < g.windowCount && gap > 0)
            machine.run(gap);
    }

    for (const SimResult &w : out.windows)
        out.aggregate.roi.add(w.roi);
    out.aggregate = finishResult(out.aggregate.roi);
    out.instructionsSimulated = machine.liveStats(0).core.instructions;
    computeDispersion(out);
    return out;
}

std::vector<SampledResult>
simulateMixSampled(const std::vector<Workload> &mix,
                   const PrefetcherSpec &spec, const SimParams &params)
{
    const SampleGeometry &g = params.sampling;
    validateGeometry(g);
    if (!g.checkpointDir.empty()) {
        throw verify::SimError(
            verify::ErrorKind::Config, "experiment",
            "per-window checkpoints are single-core only: "
            "resumeSampledWindow cannot rebuild a mix machine");
    }

    MachineConfig cfg = machineConfigFor(
        spec, params, static_cast<unsigned>(mix.size()));

    std::vector<std::unique_ptr<TraceGenerator>> gens;
    std::vector<TraceGenerator *> gen_ptrs;
    for (const auto &w : mix) {
        gens.push_back(w.make());
        gen_ptrs.push_back(gens.back().get());
    }

    Machine machine(cfg, gen_ptrs);
    machine.run(params.warmupInstructions);

    std::vector<SampledResult> out(mix.size());
    const std::uint64_t window_span = g.windowWarmup + g.windowMeasure;
    for (unsigned k = 0; k < g.windowCount; ++k) {
        if (g.windowWarmup > 0)
            machine.run(g.windowWarmup);
        std::vector<RunStats> start;
        for (unsigned c = 0; c < mix.size(); ++c)
            start.push_back(machine.coreSnapshot(c));
        machine.run(g.windowMeasure);
        for (unsigned c = 0; c < mix.size(); ++c) {
            RunStats roi = machine.coreSnapshot(c).diff(start[c]);
            out[c].windowStartInstruction.push_back(
                start[c].core.instructions);
            out[c].windows.push_back(finishResult(roi));
        }
        std::uint64_t gap = g.stride() - window_span;
        if (k + 1 < g.windowCount && gap > 0)
            machine.run(gap);
    }

    for (unsigned c = 0; c < mix.size(); ++c) {
        for (const SimResult &w : out[c].windows)
            out[c].aggregate.roi.add(w.roi);
        out[c].aggregate = finishResult(out[c].aggregate.roi);
        out[c].instructionsSimulated =
            machine.liveStats(c).core.instructions;
        computeDispersion(out[c]);
    }
    return out;
}

SimResult
resumeSampledWindow(const Workload &workload, const PrefetcherSpec &spec,
                    const SimParams &params,
                    const std::string &checkpointPath)
{
    validateGeometry(params.sampling);

    auto gen = workload.make();
    MachineConfig cfg = machineConfigFor(spec, params, 1);
    Machine machine(cfg, {gen.get()});
    machine.resumeFrom(checkpointPath);

    if (params.sampling.windowWarmup > 0)
        machine.run(params.sampling.windowWarmup);
    RunStats start = machine.liveStats(0);
    machine.run(params.sampling.windowMeasure);
    RunStats end = machine.liveStats(0);
    return finishResult(end.diff(start));
}

SampledError
sampledVsFull(const SampledResult &sampled, const SimResult &full)
{
    SampledError e;
    if (full.ipc > 0.0)
        e.ipcRel = std::abs(sampled.aggregate.ipc - full.ipc) / full.ipc;
    double full_mpki =
        full.roi.l1d.mpki(full.roi.core.instructions);
    double sampled_mpki = sampled.aggregate.roi.l1d.mpki(
        sampled.aggregate.roi.core.instructions);
    e.l1dMpkiAbs = std::abs(sampled_mpki - full_mpki);
    e.accuracyAbs = std::abs(sampled.aggregate.roi.l1d.accuracy() -
                             full.roi.l1d.accuracy());
    return e;
}

std::vector<SimResult>
simulateMix(const std::vector<Workload> &mix, const PrefetcherSpec &spec,
            const SimParams &params)
{
    if (params.sampling.enabled()) {
        std::vector<SampledResult> sampled =
            simulateMixSampled(mix, spec, params);
        std::vector<SimResult> out;
        out.reserve(sampled.size());
        for (SampledResult &s : sampled)
            out.push_back(std::move(s.aggregate));
        return out;
    }

    MachineConfig cfg = machineConfigFor(
        spec, params, static_cast<unsigned>(mix.size()));

    std::vector<std::unique_ptr<TraceGenerator>> gens;
    std::vector<TraceGenerator *> gen_ptrs;
    for (const auto &w : mix) {
        gens.push_back(w.make());
        gen_ptrs.push_back(gens.back().get());
    }

    Machine machine(cfg, gen_ptrs);
    machine.run(params.warmupInstructions);
    std::vector<RunStats> start;
    for (unsigned c = 0; c < mix.size(); ++c)
        start.push_back(machine.coreSnapshot(c));
    machine.run(params.measureInstructions);

    std::vector<SimResult> out;
    for (unsigned c = 0; c < mix.size(); ++c)
        out.push_back(finishResult(machine.coreSnapshot(c).diff(start[c])));
    return out;
}

std::vector<SimResult>
runSuite(const std::vector<Workload> &workloads,
         const PrefetcherSpec &spec, const SimParams &params)
{
    std::vector<SimResult> out;
    out.reserve(workloads.size());
    for (const auto &w : workloads)
        out.push_back(simulate(w, spec, params));
    return out;
}

double
speedupGeomean(const std::vector<SimResult> &test,
               const std::vector<SimResult> &baseline)
{
    if (test.size() != baseline.size()) {
        throw verify::SimError(
            verify::ErrorKind::Config, "experiment",
            "speedupGeomean size mismatch: " + std::to_string(test.size()) +
                " test vs " + std::to_string(baseline.size()) +
                " baseline results; a truncated geomean would silently "
                "drop workloads");
    }
    std::vector<double> speedups;
    for (std::size_t i = 0; i < test.size(); ++i) {
        if (baseline[i].ipc <= 0.0) {
            // A non-positive baseline IPC means that workload never
            // simulated (or retired nothing); skipping it would quietly
            // drop it from the geomean, biasing the figure.
            throw verify::SimError(
                verify::ErrorKind::Config, "experiment",
                "speedupGeomean: baseline result " + std::to_string(i) +
                    " has non-positive IPC (" +
                    std::to_string(baseline[i].ipc) +
                    ") — that workload would be silently dropped from "
                    "the geomean");
        }
        speedups.push_back(test[i].ipc / baseline[i].ipc);
    }
    return geomean(speedups.data(), speedups.size());
}

} // namespace berti
