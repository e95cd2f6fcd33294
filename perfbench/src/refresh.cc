#include <cstdio>
#include <fstream>
#include <set>

#include "bench.hh"
#include "harness/parallel.hh"

namespace perfbench
{

using namespace berti;

int
refreshReference(const Options &opt)
{
    const std::vector<Workload> pool = specGapWorkloads();
    std::set<std::string> singleSpecs;
    for (const std::string &s : matrixSpecs())
        singleSpecs.insert(s);
    for (const Figure &f : sweepFigures())
        singleSpecs.insert(f.specs.begin(), f.specs.end());

    // Every distinct single-core cell of l1d-matrix and figure-sweep,
    // then every core assignment of Fig. 20's mixes under every mix spec.
    struct Job
    {
        std::string key;
        std::vector<Workload> workloads;
        std::string spec;
    };
    std::vector<Job> todo;
    for (const std::string &spec : singleSpecs) {
        for (const Workload &w : pool)
            todo.push_back({singleKey(spec, w.name), {w}, spec});
    }
    for (const Mix &m : allMixAssignments(pool.size())) {
        std::vector<Workload> mix;
        std::vector<std::string> names;
        for (std::size_t idx : m) {
            mix.push_back(pool[idx]);
            names.push_back(pool[idx].name);
        }
        for (const std::string &spec : mixSpecs())
            todo.push_back({mixKey(spec, names), mix, spec});
    }

    std::vector<Counters> got(todo.size());
    forEachIndexParallel(
        todo.size(),
        [&](std::size_t i) {
            const Job &job = todo[i];
            PrefetcherSpec spec = makeSpec(job.spec);
            if (job.workloads.size() == 1) {
                got[i] = referenceCounters(
                    simulate(job.workloads[0], spec, singleParams()));
                return;
            }
            std::vector<SimResult> rs =
                simulateMix(job.workloads, spec, mixParams());
            for (std::size_t c = 0; c < rs.size(); ++c) {
                Counters one =
                    referenceCounters(rs[c], "c" + std::to_string(c) + ".");
                got[i].insert(one.begin(), one.end());
            }
        },
        /*jobs=*/0, stderrProgress("reference cells"));
    std::fprintf(stderr, "\n");

    // A missing file (first refresh) is an empty old reference.
    Reference old;
    if (std::ifstream(opt.referencePath))
        old = Reference::load(opt.referencePath);
    Reference fresh;
    std::size_t moved = 0, added = 0, dropped = 0;
    for (std::size_t i = 0; i < todo.size(); ++i) {
        fresh.set(todo[i].key, got[i]);
        if (!old.all().count(todo[i].key)) {
            ++added;
            continue;
        }
        std::string diff = old.check(todo[i].key, got[i]);
        if (!diff.empty()) {
            std::printf("moved %s\n", diff.c_str());
            ++moved;
        }
    }
    for (const auto &[key, counters] : old.all()) {
        if (!fresh.all().count(key)) {
            std::printf("dropped %s\n", key.c_str());
            ++dropped;
        }
    }
    fresh.save(opt.referencePath);
    std::printf("reference: %zu cells written to %s: %zu moved, %zu new, "
                "%zu dropped\n",
                todo.size(), opt.referencePath.c_str(), moved, added,
                dropped);
    return 0;
}

} // namespace perfbench
