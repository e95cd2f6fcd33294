#include "sim/options.hh"

#include <cctype>
#include <cstdlib>

#include "verify/sim_error.hh"

namespace berti::sim
{

namespace
{

[[noreturn]] void
fail(const std::string &component, const std::string &reason)
{
    throw verify::SimError(verify::ErrorKind::Config, component, reason);
}

/**
 * Strict positive-integer parse shared by the BERTI_OBS_* family; an
 * unset or empty variable keeps the fallback (historical envU64
 * semantics from src/obs).
 */
std::uint64_t
envU64(const char *name, std::uint64_t fallback)
{
    const char *raw = std::getenv(name);
    if (!raw || !*raw)
        return fallback;
    char *end = nullptr;
    unsigned long long v = std::strtoull(raw, &end, 10);
    if (!end || *end != '\0' || v == 0) {
        fail("obs", std::string(name) + "=\"" + raw +
                        "\" is not a positive integer");
    }
    return static_cast<std::uint64_t>(v);
}

/**
 * Non-negative integer parse for the sampling-geometry family, where 0
 * is meaningful ("sampling off" / "no per-window warmup" / "back-to-back
 * windows") rather than malformed.
 */
std::uint64_t
envU64Zero(const char *name, std::uint64_t fallback)
{
    const char *raw = std::getenv(name);
    if (!raw || !*raw)
        return fallback;
    char *end = nullptr;
    unsigned long long v = std::strtoull(raw, &end, 10);
    if (!end || *end != '\0') {
        fail("sampling", std::string(name) + "=\"" + raw +
                             "\" is not a non-negative integer");
    }
    return static_cast<std::uint64_t>(v);
}

/** BERTI_VERIFY-style switch: on iff set, non-empty and not "0". */
bool
envSwitch(const char *name)
{
    const char *v = std::getenv(name);
    return v && *v && std::string(v) != "0";
}

/** BERTI_BENCH_QUICK-style switch: on iff the value starts with '1'. */
bool
envOne(const char *name)
{
    const char *v = std::getenv(name);
    return v && v[0] == '1';
}

unsigned
parseJobs(const std::string &text)
{
    bool digits = !text.empty();
    for (char c : text) {
        if (!std::isdigit(static_cast<unsigned char>(c)))
            digits = false;
    }
    unsigned long value = digits ? std::strtoul(text.c_str(), nullptr, 10)
                                 : 0;
    if (!digits || value == 0 || value > 4096) {
        fail("parallel", "BERTI_JOBS must be a positive integer (got \"" +
                             text + "\")");
    }
    return static_cast<unsigned>(value);
}

} // namespace

SimOptions
SimOptions::fromEnv()
{
    SimOptions opt;

    // Parallel runner. A set-but-empty BERTI_JOBS is an error (unlike
    // the obs family): it always meant a typo'd job count.
    if (const char *jobs = std::getenv("BERTI_JOBS"))
        opt.jobs = parseJobs(jobs);

    // Cycle-skip is on by default; any value starting with '0' turns it
    // off. (There is no "force on" spelling — on is the default.)
    if (const char *skip = std::getenv("BERTI_CYCLE_SKIP"))
        opt.cycleSkip = skip[0] != '0';

    // Interval sampling. Windows/warmup/stride accept 0 (off / no
    // per-window warmup / back-to-back); the measured length must stay
    // positive or a "sampled" run would measure nothing.
    opt.sampleWindows = static_cast<unsigned>(
        envU64Zero("BERTI_SAMPLE_WINDOWS", opt.sampleWindows));
    opt.sampleWarmup = envU64Zero("BERTI_SAMPLE_WARMUP", opt.sampleWarmup);
    opt.sampleMeasure =
        envU64Zero("BERTI_SAMPLE_MEASURE", opt.sampleMeasure);
    if (opt.sampleMeasure == 0) {
        fail("sampling",
             "BERTI_SAMPLE_MEASURE must be a positive instruction count");
    }
    opt.sampleStride = envU64Zero("BERTI_SAMPLE_STRIDE", opt.sampleStride);

    // Observability: strict positive-integer parses.
    if (std::getenv("BERTI_OBS_INTERVAL"))
        opt.obsInterval = envU64("BERTI_OBS_INTERVAL", 0);
    opt.obsRing =
        static_cast<std::size_t>(envU64("BERTI_OBS_RING", opt.obsRing));
    if (std::getenv("BERTI_OBS_PFTRACE"))
        opt.pfTraceCapacity =
            static_cast<std::size_t>(envU64("BERTI_OBS_PFTRACE", 0));
    opt.pfTracePeriod =
        envU64("BERTI_OBS_PFTRACE_PERIOD", opt.pfTracePeriod);
    if (const char *tw = std::getenv("BERTI_TRACE_WORKLOADS"); tw && *tw)
        opt.traceWorkloads = tw;

    // Memory backend: stored raw, validated by mem::parseBackendSpec
    // where the machine is configured (typed Config error there).
    if (const char *mb = std::getenv("BERTI_MEM_BACKEND"); mb && *mb)
        opt.memBackend = mb;

    // Hardening. A malformed BERTI_VERIFY_INTERVAL is silently ignored
    // (historical auditor behavior: auditing must never be knocked out
    // by a bad interval in CI).
    opt.verify = envSwitch("BERTI_VERIFY");
    if (const char *interval = std::getenv("BERTI_VERIFY_INTERVAL")) {
        char *end = nullptr;
        unsigned long long v = std::strtoull(interval, &end, 10);
        if (end && *end == '\0' && v > 0)
            opt.verifyInterval = static_cast<Cycle>(v);
    }

    // Hybrid prefetcher geometry. Degree accepts 0 (greediest-child
    // governor); the table/counter shapes must stay positive. Range
    // validation (e.g. duel-sets vs the bucket count) happens where the
    // values meet a spec, in the hybrid parser, so env and in-spec
    // options fail identically.
    opt.hybridDegree = static_cast<unsigned>(
        envU64Zero("BERTI_HYBRID_DEGREE", opt.hybridDegree));
    opt.hybridCreditEntries = static_cast<unsigned>(
        envU64("BERTI_HYBRID_CREDITS", opt.hybridCreditEntries));
    opt.hybridCreditMax = static_cast<unsigned>(
        envU64("BERTI_HYBRID_CREDIT_MAX", opt.hybridCreditMax));
    opt.hybridDuelSets = static_cast<unsigned>(
        envU64("BERTI_HYBRID_DUEL_SETS", opt.hybridDuelSets));
    opt.hybridPselBits = static_cast<unsigned>(
        envU64("BERTI_HYBRID_PSEL_BITS", opt.hybridPselBits));

    // Bench + test harness.
    opt.benchQuick = envOne("BERTI_BENCH_QUICK");
    opt.updateGoldens = envOne("BERTI_UPDATE_GOLDENS");
    if (const char *seed = std::getenv("BERTI_TEST_SEED");
        seed && *seed) {
        opt.testSeed = std::strtoull(seed, nullptr, 0);
        opt.hasTestSeed = true;
    }
    if (const char *iters = std::getenv("BERTI_PROP_ITERS");
        iters && *iters) {
        unsigned long mult = std::strtoul(iters, nullptr, 10);
        opt.propIterMultiplier = static_cast<unsigned>(mult < 1 ? 1
                                                                : mult);
    }
    if (const char *dir = std::getenv("BERTI_ARTIFACT_DIR"); dir && *dir)
        opt.artifactDir = dir;

    return opt;
}

bool
SimOptions::applyFlag(const std::string &arg)
{
    auto value = [&](const char *prefix) -> const char * {
        std::size_t n = std::string(prefix).size();
        if (arg.compare(0, n, prefix) == 0)
            return arg.c_str() + n;
        return nullptr;
    };

    if (arg == "--quick") {
        benchQuick = true;
        return true;
    }
    if (arg == "--no-cycle-skip") {
        cycleSkip = false;
        return true;
    }
    if (arg == "--cycle-skip") {
        cycleSkip = true;
        return true;
    }
    if (arg == "--verify") {
        verify = true;
        return true;
    }
    if (const char *v = value("--jobs=")) {
        jobs = parseJobs(v);
        return true;
    }
    if (const char *v = value("--trace-workloads=")) {
        traceWorkloads = v;
        return true;
    }
    if (const char *v = value("--mem-backend=")) {
        memBackend = v;
        return true;
    }

    // Sampling geometry mirrors the BERTI_SAMPLE_* family, including
    // which knobs accept zero.
    auto u64Flag = [&](const char *text, const char *flag,
                       bool zero_ok) -> std::uint64_t {
        char *end = nullptr;
        unsigned long long parsed = std::strtoull(text, &end, 10);
        if (!end || *end != '\0' || *text == '\0' ||
            (!zero_ok && parsed == 0)) {
            fail("sampling", std::string(flag) + "=\"" + text + "\" is " +
                                 (zero_ok ? "not a non-negative integer"
                                          : "not a positive integer"));
        }
        return static_cast<std::uint64_t>(parsed);
    };
    if (const char *v = value("--sample-windows=")) {
        sampleWindows = static_cast<unsigned>(
            u64Flag(v, "--sample-windows", /*zero_ok=*/true));
        return true;
    }
    if (const char *v = value("--sample-warmup=")) {
        sampleWarmup = u64Flag(v, "--sample-warmup", /*zero_ok=*/true);
        return true;
    }
    if (const char *v = value("--sample-measure=")) {
        sampleMeasure = u64Flag(v, "--sample-measure", /*zero_ok=*/false);
        return true;
    }
    if (const char *v = value("--sample-stride=")) {
        sampleStride = u64Flag(v, "--sample-stride", /*zero_ok=*/true);
        return true;
    }

    // Hybrid selector geometry mirrors the BERTI_HYBRID_* family.
    if (const char *v = value("--hybrid-degree=")) {
        hybridDegree = static_cast<unsigned>(
            u64Flag(v, "--hybrid-degree", /*zero_ok=*/true));
        return true;
    }
    if (const char *v = value("--hybrid-credits=")) {
        hybridCreditEntries = static_cast<unsigned>(
            u64Flag(v, "--hybrid-credits", /*zero_ok=*/false));
        return true;
    }
    if (const char *v = value("--hybrid-credit-max=")) {
        hybridCreditMax = static_cast<unsigned>(
            u64Flag(v, "--hybrid-credit-max", /*zero_ok=*/false));
        return true;
    }
    if (const char *v = value("--hybrid-duel-sets=")) {
        hybridDuelSets = static_cast<unsigned>(
            u64Flag(v, "--hybrid-duel-sets", /*zero_ok=*/false));
        return true;
    }
    if (const char *v = value("--hybrid-psel-bits=")) {
        hybridPselBits = static_cast<unsigned>(
            u64Flag(v, "--hybrid-psel-bits", /*zero_ok=*/false));
        return true;
    }
    return false;
}

SimOptions
SimOptions::fromEnvAndArgs(int &argc, char **argv)
{
    SimOptions opt = fromEnv();
    int kept = 1;
    for (int i = 1; i < argc; ++i) {
        if (!opt.applyFlag(argv[i]))
            argv[kept++] = argv[i];
    }
    argc = kept;
    return opt;
}

} // namespace berti::sim
