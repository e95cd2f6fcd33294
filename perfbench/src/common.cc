#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include <sys/resource.h>

#include "bench.hh"
#include "obs/export.hh"
#include "sim/rng.hh"

namespace perfbench
{

using namespace berti;

SimParams
singleParams()
{
    SimParams p;
    p.warmupInstructions = 10000;
    p.measureInstructions = 40000;
    return p;
}

SimParams
mixParams()
{
    SimParams p = singleParams();
    p.warmupInstructions /= 4;
    p.measureInstructions /= 4;
    return p;
}

const char *
workloadName(WorkloadKind kind)
{
    switch (kind) {
      case WorkloadKind::L1dMatrix:
        return "l1d-matrix";
      case WorkloadKind::Mix4Shared:
        return "mix4-shared";
      case WorkloadKind::FigureSweep:
        return "figure-sweep";
    }
    return "?";
}

bool
parseWorkloadName(const std::string &name, WorkloadKind *out)
{
    for (WorkloadKind k : {WorkloadKind::L1dMatrix, WorkloadKind::Mix4Shared,
                           WorkloadKind::FigureSweep}) {
        if (name == workloadName(k)) {
            *out = k;
            return true;
        }
    }
    return false;
}

std::vector<Mix>
fig20Mixes(std::size_t poolSize)
{
    Rng rng(kDefaultSeed);
    std::vector<Mix> mixes;
    for (unsigned i = 0; i < kMixes; ++i) {
        Mix mix;
        for (unsigned c = 0; c < 4; ++c)
            mix.push_back(rng.nextBounded(poolSize));
        mixes.push_back(mix);
    }
    return mixes;
}

std::vector<Mix>
mixesForSeed(std::uint64_t seed, std::size_t poolSize)
{
    // The seed draws which core runs which workload, not the workloads.
    // Host cost per simulated cycle differs threefold between mixes, so
    // drawing the workloads made throughput follow the seed by 10% or
    // more; a core assignment changes the simulated interleaving on the
    // shared LLC and DRAM at about the same host cost.
    std::vector<Mix> mixes = fig20Mixes(poolSize);
    if (seed == kDefaultSeed)
        return mixes;
    Rng rng(seed);
    for (Mix &mix : mixes) {
        for (std::size_t i = mix.size(); i > 1; --i)
            std::swap(mix[i - 1], mix[rng.nextBounded(i)]);
    }
    return mixes;
}

std::vector<Mix>
allMixAssignments(std::size_t poolSize)
{
    std::set<Mix> seen;
    std::vector<Mix> out;
    for (Mix mix : fig20Mixes(poolSize)) {
        std::sort(mix.begin(), mix.end());
        do {
            if (seen.insert(mix).second)
                out.push_back(mix);
        } while (std::next_permutation(mix.begin(), mix.end()));
    }
    return out;
}

const std::vector<Figure> &
sweepFigures()
{
    static const std::vector<Figure> figures = {
        {"fig08", {"ip-stride", "mlop", "ipcp", "berti"}},
        {"fig10", {"mlop", "ipcp", "berti"}},
        {"fig11", {"none", "ip-stride", "mlop", "ipcp", "berti"}},
        {"fig14",
         {"none", "ip-stride", "mlop", "ipcp", "berti", "mlop+bingo",
          "berti+bingo", "berti+spp-ppf"}},
    };
    return figures;
}

const std::vector<std::string> &
matrixSpecs()
{
    static const std::vector<std::string> specs = {
        "none", "ip-stride", "mlop", "ipcp", "berti"};
    return specs;
}

const std::vector<std::string> &
mixSpecs()
{
    static const std::vector<std::string> specs = {"ip-stride", "mlop",
                                                   "ipcp", "berti"};
    return specs;
}

std::string
singleKey(const std::string &spec, const std::string &workload)
{
    return "single/" + spec + "/" + workload;
}

std::string
mixKey(const std::string &spec, const std::vector<std::string> &workloads)
{
    std::string key = "mix/" + spec + "/";
    for (std::size_t i = 0; i < workloads.size(); ++i)
        key += (i ? "+" : "") + workloads[i];
    return key;
}

// ------------------------------------------------------------ reference

Counters
referenceCounters(const SimResult &r, const std::string &prefix)
{
    static const char *const kFields[] = {
        "core.cycles",        "core.instructions",  "l1d.demand_misses",
        "l1d.prefetch_issued", "l1d.prefetch_useful", "dram.reads",
    };
    obs::MetricsSnapshot snap = resultSnapshot(r);
    Counters out;
    for (const char *f : kFields)
        out[prefix + f] = snap.counter(f);
    return out;
}

Reference
Reference::load(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read reference " + path);
    Reference ref;
    std::string line;
    unsigned lineNo = 0;
    while (std::getline(in, line)) {
        ++lineNo;
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string key, item;
        fields >> key;
        Counters c;
        while (fields >> item) {
            auto eq = item.find('=');
            if (eq == std::string::npos || eq == 0) {
                throw std::runtime_error(path + ":" +
                                         std::to_string(lineNo) +
                                         ": expected field=value");
            }
            c[item.substr(0, eq)] = std::stoull(item.substr(eq + 1));
        }
        if (c.empty()) {
            throw std::runtime_error(path + ":" + std::to_string(lineNo) +
                                     ": cell without counters");
        }
        ref.cells[key] = c;
    }
    if (ref.cells.empty())
        throw std::runtime_error("reference " + path + " has no cells");
    return ref;
}

void
Reference::save(const std::string &path) const
{
    std::ostringstream out;
    out << "# Simulated counters per benchmark cell (perfbench/README.md).\n"
           "# Regenerate after an intentional model change with\n"
           "#   python3 perfbench/run.py --refresh-reference\n";
    for (const auto &[key, c] : cells) {
        out << key;
        for (const auto &[field, value] : c)
            out << ' ' << field << '=' << value;
        out << '\n';
    }
    obs::writeFile(path, out.str());
}

std::string
Reference::check(const std::string &key, const Counters &got) const
{
    auto it = cells.find(key);
    if (it == cells.end())
        return key + ": no reference";
    std::string diff;
    for (const auto &[field, want] : it->second) {
        auto g = got.find(field);
        if (g == got.end()) {
            diff += " " + field + " missing";
        } else if (g->second != want) {
            diff += " " + field + " " + std::to_string(want) + "->" +
                    std::to_string(g->second);
        }
    }
    return diff.empty() ? diff : key + ":" + diff;
}

// ---------------------------------------------------------------- stats

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Tail
tailOf(std::vector<double> v)
{
    // The (n-10)th smallest sample (1-based) is the highest one with ten
    // samples beyond it; it sits at percentile 100 * (n-10) / n.
    Tail t;
    t.samples = v.size();
    if (v.empty())
        return t;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    std::size_t rank = n > 10 ? n - 10 : 1;
    t.value = v[rank - 1];
    t.percentile = 100.0 * static_cast<double>(rank) /
                   static_cast<double>(n);
    return t;
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;   // KiB on Linux
}

namespace
{

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

} // namespace

std::string
hostFingerprint(const Options &opt, unsigned jobs)
{
    std::ostringstream out;
    out << "host: cpu=\"" << cpuModel() << "\" nproc="
        << std::thread::hardware_concurrency() << " compiler=\""
#if defined(__clang__)
        << "clang " << __clang_version__
#elif defined(__GNUC__)
        << "gcc " << __VERSION__
#else
        << "unknown"
#endif
        << "\" build=" << PERFBENCH_BUILD_TYPE
        << " git=" << PERFBENCH_GIT_REV << " sources="
        << (opt.sourceDigest.empty() ? "unknown" : opt.sourceDigest)
        << " seed=" << opt.seed << " workers=" << jobs;
    return out.str();
}

} // namespace perfbench
