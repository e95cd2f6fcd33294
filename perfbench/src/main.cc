/**
 * @file
 * perfbench: the repository benchmark. Usually started through
 * perfbench/run.py, which builds it and supplies the paths:
 *
 *   perfbench --workload l1d-matrix|mix4-shared|figure-sweep
 *             [--seed N] [--seconds S] [--trace 0|1]
 *             --reference FILE --work-dir DIR [--source-digest HEX]
 *   perfbench --refresh-reference --reference FILE
 *   perfbench --self-test --reference FILE --work-dir DIR
 *
 * A benchmark run prints the host fingerprint, every metric with its
 * unit, and as its last line one JSON object with the keys correct,
 * attempted, failed and metrics.
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hh"

namespace
{

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload NAME [--seed N] [--seconds S] "
                 "[--trace 0|1] --reference FILE --work-dir DIR "
                 "[--source-digest HEX]\n"
                 "       perfbench --refresh-reference --reference FILE\n"
                 "       perfbench --self-test --reference FILE "
                 "--work-dir DIR\n",
                 why.c_str());
    std::exit(2);
}

unsigned long long
number(const std::string &flag, const std::string &v)
{
    try {
        std::size_t used = 0;
        unsigned long long n = std::stoull(v, &used, 0);
        if (used == v.size())
            return n;
    } catch (const std::exception &) {
    }
    usage(flag + " wants a whole number, got '" + v + "'");
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Options opt;
    bool haveWorkload = false, selfTest = false, refresh = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(a + " needs a value");
            return argv[++i];
        };
        if (a == "--workload") {
            std::string v = value();
            if (!parseWorkloadName(v, &opt.workload))
                usage("unknown workload '" + v + "'");
            haveWorkload = true;
        } else if (a == "--seed") {
            opt.seed = number(a, value());
        } else if (a == "--seconds") {
            opt.seconds = static_cast<double>(number(a, value()));
        } else if (a == "--trace") {
            opt.trace = number(a, value()) != 0;
        } else if (a == "--reference") {
            opt.referencePath = value();
        } else if (a == "--work-dir") {
            opt.workDir = value();
        } else if (a == "--source-digest") {
            opt.sourceDigest = value();
        } else if (a == "--self-test") {
            selfTest = true;
        } else if (a == "--refresh-reference") {
            refresh = true;
        } else {
            usage("unknown argument '" + a + "'");
        }
    }
    if (opt.referencePath.empty())
        usage("--reference is required");

    try {
        if (refresh)
            return refreshReference(opt);
        if (opt.workDir.empty())
            usage("--work-dir is required");
        if (selfTest)
            return runSelfTests(opt);
        if (!haveWorkload)
            usage("--workload is required");
        return runBenchmark(opt);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: error: %s\n", e.what());
        return 1;
    }
}
