/**
 * @file
 * Crash-safe sweep CLI over the supervised worker layer: runs a
 * (workload x spec) matrix with a content-addressed result store, so a
 * killed sweep resumes from its completed cells, a failing cell is
 * quarantined after its one attempt (the simulator is deterministic,
 * so --rerun-failed is the retry), and the final matrix is emitted as
 * per-cell JSON sidecars byte-identical to an uninterrupted run.
 *
 * Usage:
 *   sweep_tool [options]
 *     --workloads=a,b,c     workload names and/or file: trace URIs
 *                           (file:/path/foo.champsim[.xz|.gz] or
 *                           file:/path/foo.trace; default: a small trio)
 *     --specs=x,y           prefetcher specs (default: none,berti)
 *     --store=DIR           result store directory (enables resume)
 *     --out=DIR             write per-cell resultSnapshot JSON here
 *     --warmup=N --measure=N --dram-mtps=N
 *     --mem-backend=SPEC    memory backend (mem/backend_registry.hh
 *                           grammar, e.g. dram:ddr5 or
 *                           "dram:hbm;sched=fcfs"; default dram:ddr4)
 *     --sample-windows=N    sampled mode: N measurement windows (0=off)
 *     --sample-warmup=N     per-window warmup instructions
 *     --sample-measure=N    per-window measured instructions (> 0)
 *     --sample-stride=N     window start spacing (0 = back-to-back)
 *     --jobs=N              worker threads (0 = auto)
 *     --deadline-ms=N       per-simulation wall-clock budget
 *     --rerun-failed        retry cells quarantined by earlier sweeps
 *     --poison=SPEC/WORKLOAD  deterministically fail that cell (tests)
 *     --quick               tiny warmup/measure for smoke tests
 *
 * Exit status: 0 all cells ok, 2 when any cell is quarantined (the
 * rest of the matrix still completed and was stored), 1 on usage or
 * structural errors.
 */

#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "harness/parallel.hh"
#include "harness/result_store.hh"
#include "harness/supervisor.hh"
#include "obs/export.hh"
#include "sim/options.hh"
#include "sim/spec_parse.hh"
#include "trace/registry.hh"
#include "verify/sim_error.hh"

namespace
{

using namespace berti;

/** Split on commas at paren depth 0, so composed specs like
 *  "hybrid(berti,cmc)" stay one list element. */
std::vector<std::string>
splitList(const std::string &csv)
{
    return sim::splitTopLevel(csv, ',');
}

struct Options
{
    std::vector<std::string> workloads = {"mcf-like.472",
                                          "bwaves-like.2609",
                                          "cactu-like.709"};
    std::vector<std::string> specs = {"none", "berti"};
    std::string storeDir;
    std::string outDir;
    SimParams params;
    unsigned jobs = 0;
    bool rerunFailed = false;
    std::string poisonSpec;
    std::string poisonWorkload;
};

bool
parseArgs(int argc, char **argv, Options &opt)
{
    auto valueOf = [](const std::string &arg, const std::string &flag,
                      std::string &out) {
        if (arg.compare(0, flag.size(), flag) != 0)
            return false;
        out = arg.substr(flag.size());
        return true;
    };

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        std::string v;
        if (valueOf(arg, "--workloads=", v)) {
            opt.workloads = splitList(v);
        } else if (valueOf(arg, "--specs=", v)) {
            opt.specs = splitList(v);
        } else if (valueOf(arg, "--store=", v)) {
            opt.storeDir = v;
        } else if (valueOf(arg, "--out=", v)) {
            opt.outDir = v;
        } else if (valueOf(arg, "--warmup=", v)) {
            opt.params.warmupInstructions = std::stoull(v);
        } else if (valueOf(arg, "--measure=", v)) {
            opt.params.measureInstructions = std::stoull(v);
        } else if (valueOf(arg, "--dram-mtps=", v)) {
            opt.params.dramMtps = static_cast<unsigned>(std::stoul(v));
        } else if (valueOf(arg, "--mem-backend=", v)) {
            opt.params.memBackend = v;
        } else if (valueOf(arg, "--sample-windows=", v)) {
            opt.params.sampling.windowCount =
                static_cast<unsigned>(std::stoul(v));
        } else if (valueOf(arg, "--sample-warmup=", v)) {
            opt.params.sampling.windowWarmup = std::stoull(v);
        } else if (valueOf(arg, "--sample-measure=", v)) {
            opt.params.sampling.windowMeasure = std::stoull(v);
            if (opt.params.sampling.windowMeasure == 0) {
                std::cerr << "error: --sample-measure must be > 0\n";
                return false;
            }
        } else if (valueOf(arg, "--sample-stride=", v)) {
            opt.params.sampling.windowStride = std::stoull(v);
        } else if (valueOf(arg, "--jobs=", v)) {
            opt.jobs = static_cast<unsigned>(std::stoul(v));
        } else if (valueOf(arg, "--deadline-ms=", v)) {
            opt.params.wallClockBudgetMs = std::stoull(v);
        } else if (arg == "--rerun-failed") {
            opt.rerunFailed = true;
        } else if (valueOf(arg, "--poison=", v)) {
            std::size_t slash = v.find('/');
            if (slash == std::string::npos) {
                std::cerr << "error: --poison needs SPEC/WORKLOAD\n";
                return false;
            }
            opt.poisonSpec = v.substr(0, slash);
            opt.poisonWorkload = v.substr(slash + 1);
        } else if (arg == "--quick") {
            opt.params.warmupInstructions = 2000;
            opt.params.measureInstructions = 10000;
        } else {
            std::cerr << "error: unknown argument '" << arg << "'\n";
            return false;
        }
    }
    return !opt.workloads.empty() && !opt.specs.empty();
}

/** File-name-safe form of a spec/workload label (file: URIs carry
 *  slashes and colons that cannot appear in a sidecar file name). */
std::string
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

/** Sidecar path for one cell under --out (no store key in the name:
 *  the layout is byte-comparable across runs with `diff -r`). */
std::string
sidecarPath(const std::string &dir, const std::string &spec,
            const std::string &workload)
{
    return dir + "/" + sanitizeLabel(spec) + "__" +
           sanitizeLabel(workload) + ".json";
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    if (!parseArgs(argc, argv, opt))
        return 1;

    try {
        std::vector<Workload> workloads;
        for (const std::string &name : opt.workloads)
            workloads.push_back(resolveWorkload(name));
        // Options-aware resolution: hybrid specs pick up the
        // BERTI_HYBRID_* selector geometry and canonicalize their
        // store-key names accordingly.
        const sim::SimOptions simOpt = sim::SimOptions::fromEnv();
        std::vector<PrefetcherSpec> specs;
        for (const std::string &name : opt.specs)
            specs.push_back(makeSpec(name, simOpt));

        std::unique_ptr<harness::ResultStore> store;
        if (!opt.storeDir.empty()) {
            store = std::make_unique<harness::ResultStore>(opt.storeDir);
            if (store->staleTempFilesRemoved() > 0) {
                std::cerr << "sweep: removed "
                          << store->staleTempFilesRemoved()
                          << " stale .tmp file(s) from "
                          << opt.storeDir << "\n";
            }
        }

        harness::SupervisorConfig sup;
        sup.store = store.get();
        sup.rerunFailed = opt.rerunFailed;
        sup.jobs = opt.jobs;
        sup.progress = stderrProgress("sweep");
        if (!opt.poisonSpec.empty()) {
            std::string pspec = opt.poisonSpec;
            std::string pworkload = opt.poisonWorkload;
            sup.preAttempt = [pspec, pworkload](
                                 const std::string &workload,
                                 const std::string &spec, unsigned) {
                if (spec == pspec && workload == pworkload) {
                    throw verify::SimError(
                        verify::ErrorKind::Fault, "sweep_tool",
                        "cell poisoned by --poison (deterministic "
                        "failure for crash-safety tests)");
                }
            };
        }

        harness::SweepReport report = harness::runSupervisedMatrix(
            workloads, specs, opt.params, sup);

        for (std::size_t s = 0; s < report.cells.size(); ++s) {
            for (const harness::CellResult &cell : report.cells[s]) {
                if (cell.ok() && !opt.outDir.empty()) {
                    obs::writeFile(
                        sidecarPath(opt.outDir, cell.spec, cell.workload),
                        obs::toJson(resultSnapshot(cell.result)) + "\n");
                }
                if (!cell.ok()) {
                    std::cerr << "sweep: cell " << cell.spec << "/"
                              << cell.workload << " "
                              << harness::cellOutcomeName(cell.outcome)
                              << " ["
                              << verify::errorKindName(cell.error.kind)
                              << "] " << cell.error.reason << "\n";
                }
            }
        }

        std::cout << "sweep: " << report.summary() << "\n";
        if (store) {
            std::cout << "sweep: store=" << store->directory()
                      << " code=" << harness::resultStoreCodeVersion()
                      << " params="
                      << harness::paramsFingerprint(opt.params) << "\n";
        }
        return report.quarantined + report.skippedQuarantined > 0 ? 2 : 0;
    } catch (const verify::SimError &e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    } catch (const std::exception &e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }
}
