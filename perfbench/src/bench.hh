/**
 * @file
 * Shared declarations of the repository benchmark: options, the three
 * workloads, the result reference, and the statistics helpers. See
 * perfbench/README.md for the metric catalogue.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness/experiment.hh"

namespace perfbench
{

/** Fig. 20's mix seed, the default benchmark seed. */
constexpr std::uint64_t kDefaultSeed = 0x20221001;

/** Set-ups per run; setup_s is their median. */
constexpr unsigned kSetupRepeats = 3;

/** Single-core cell lengths: the figure benches' --quick sizes. */
berti::SimParams singleParams();

/** Mix cell lengths: a quarter of singleParams() per core. Fig. 20
 *  halves the lengths; four cores that each stall on DRAM make a mix
 *  cell cost ten single cells, so the benchmark halves them again. */
berti::SimParams mixParams();

enum class WorkloadKind
{
    L1dMatrix,
    Mix4Shared,
    FigureSweep
};

const char *workloadName(WorkloadKind kind);
bool parseWorkloadName(const std::string &name, WorkloadKind *out);

struct Options
{
    WorkloadKind workload = WorkloadKind::L1dMatrix;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
    std::string referencePath;
    std::string workDir;          //!< scratch space for stores/sidecars
    std::string sourceDigest;     //!< identifies the simulator sources
};

// ---------------------------------------------------------------- cells

/** Four pool indices, one per core. */
using Mix = std::vector<std::size_t>;

/** Fig. 20's 8 mixes: bench/fig20_multicore.cpp's draw from the pool. */
constexpr unsigned kMixes = 8;
std::vector<Mix> fig20Mixes(std::size_t poolSize);

/**
 * The mixes a seed runs: Fig. 20's, each with its four workloads
 * assigned to cores in a seeded order (Fig. 20's own order for the
 * default seed).
 */
std::vector<Mix> mixesForSeed(std::uint64_t seed, std::size_t poolSize);

/** Every distinct core assignment of Fig. 20's mixes: the mix cells
 *  any seed can request. */
std::vector<Mix> allMixAssignments(std::size_t poolSize);

struct Figure
{
    const char *name;
    std::vector<std::string> specs;
};

/** The requests of Figs. 8, 10, 11 and 14, in that order. */
const std::vector<Figure> &sweepFigures();

/** Specs of the l1d-matrix and mix4-shared workloads. */
const std::vector<std::string> &matrixSpecs();
const std::vector<std::string> &mixSpecs();

std::string singleKey(const std::string &spec, const std::string &workload);
std::string mixKey(const std::string &spec,
                   const std::vector<std::string> &workloads);

// ------------------------------------------------------------ reference

using Counters = std::map<std::string, std::uint64_t>;

/** The simulated counters the reference keeps for one result. */
Counters referenceCounters(const berti::SimResult &r,
                           const std::string &prefix = "");

/** Per-cell reference counters for the default seed's sizes. */
class Reference
{
  public:
    /** Parse a reference file; throws std::runtime_error when it is
     *  missing or malformed. */
    static Reference load(const std::string &path);

    void save(const std::string &path) const;

    /**
     * "" when every counter the reference keeps for `key` equals the
     * one in `got`, else what differs. Only the reference's own fields
     * are compared, so counters added to the model later do not fail
     * the check. A key without a reference fails.
     */
    std::string check(const std::string &key, const Counters &got) const;

    void set(const std::string &key, const Counters &c) { cells[key] = c; }
    const std::map<std::string, Counters> &all() const { return cells; }

  private:
    std::map<std::string, Counters> cells;
};

/** Recompute every referenced cell and rewrite the file, listing the
 *  cells that moved. Returns the process exit code. */
int refreshReference(const Options &opt);

// ---------------------------------------------------------------- stats

double median(std::vector<double> v);

/** The highest percentile with at least ten samples beyond it. */
struct Tail
{
    double value = 0.0;
    double percentile = 0.0;
    std::size_t samples = 0;
};
Tail tailOf(std::vector<double> v);

/** Process user+sys CPU seconds, all threads. */
double cpuSeconds();

/** Process peak resident set, MiB. */
double peakRssMb();

/** One line naming the host and build. */
std::string hostFingerprint(const Options &opt, unsigned jobs);

// --------------------------------------------------------------- tracing

class LayerSink;

/** Host time and work of the Machines a traced run builds. */
struct MachineTally
{
    double constructS = 0.0;
    double runS = 0.0;
    std::uint64_t cycles = 0;
    std::uint64_t skipped = 0;
    std::uint64_t instructions = 0;
    Counters counts;   //!< summed from Machine::metricsSnapshot()

    void add(const MachineTally &o);
};

/**
 * simulate() (one workload) or simulateMix() (several), step for step,
 * on a Machine whose generators, prefetchers and memory backend are
 * decorated. The results must equal the undecorated calls' byte for
 * byte.
 */
std::vector<berti::SimResult>
tracedSimulate(const std::vector<berti::Workload> &mix,
               const berti::PrefetcherSpec &spec,
               const berti::SimParams &params, LayerSink *sink,
               MachineTally *mt);

// ------------------------------------------------------------- running

/** Run one workload as the options say; prints metrics and the result
 *  line. Returns the process exit code. */
int runBenchmark(const Options &opt);

/** The benchmark's own checks. Returns the process exit code. */
int runSelfTests(const Options &opt);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
