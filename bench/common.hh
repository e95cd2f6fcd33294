/**
 * @file
 * Shared plumbing of the figures program and perf_simspeed: default
 * simulation lengths, the extra trace workloads, and file-name-safe
 * labels.
 */

#ifndef BERTI_BENCH_COMMON_HH
#define BERTI_BENCH_COMMON_HH

#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "sim/options.hh"
#include "sim/spec_parse.hh"

namespace berti::bench
{

/** File-name-safe form of a workload/spec label. */
inline std::string
sanitizeLabel(const std::string &label)
{
    std::string out;
    out.reserve(label.size());
    for (char c : label) {
        bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                  (c >= '0' && c <= '9') || c == '-' || c == '.' ||
                  c == '_';
        out.push_back(ok ? c : '-');
    }
    return out.empty() ? std::string("unnamed") : out;
}

/**
 * File-backed workloads requested via BERTI_TRACE_WORKLOADS (or
 * --trace-workloads=): a comma-separated list of `file:` URIs or bare
 * trace paths. Figures 9, 23 and 24 append these to their workload
 * lists so real ChampSim traces ride along with the synthetic suites.
 * Bare paths get the `file:` prefix here; resolution errors are typed
 * SimErrors from resolveWorkload.
 */
inline std::vector<Workload>
extraTraceWorkloads(const sim::SimOptions &opt)
{
    std::vector<Workload> out;
    for (std::string name : sim::splitTopLevel(opt.traceWorkloads, ',')) {
        if (name.compare(0, 5, "file:") != 0)
            name = "file:" + name;
        out.push_back(resolveWorkload(name));
    }
    return out;
}

/** Default region-of-interest sizes for figure runs. Set
 *  BERTI_BENCH_QUICK=1 (or pass --quick) for a fast smoke pass, and
 *  BERTI_SAMPLE_WINDOWS=N (or --sample-windows=N) to replace the long
 *  measurement region with N sampled windows — every figure then
 *  regenerates from windowed samples at a fraction of the simulated
 *  instructions, stored under distinct result-store keys. */
inline SimParams
defaultParams(const sim::SimOptions &opt)
{
    SimParams p;
    p.warmupInstructions = 40000;
    p.measureInstructions = 200000;
    if (opt.benchQuick) {
        p.warmupInstructions = 10000;
        p.measureInstructions = 40000;
    }
    if (opt.sampleWindows > 0) {
        p.sampling.windowCount = opt.sampleWindows;
        p.sampling.windowWarmup = opt.sampleWarmup;
        p.sampling.windowMeasure = opt.sampleMeasure;
        p.sampling.windowStride = opt.sampleStride;
        // Sampling exists to cut simulated instructions; the global
        // warmup shrinks with it (windows re-warm locally).
        p.warmupInstructions = opt.benchQuick ? 4000 : 8000;
    }
    // BERTI_MEM_BACKEND / --mem-backend= flows into every figure cell;
    // paramsFingerprint keys non-default backends separately.
    p.memBackend = opt.memBackend;
    return p;
}

} // namespace berti::bench

#endif // BERTI_BENCH_COMMON_HH
