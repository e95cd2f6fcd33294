/**
 * @file
 * Supervised-sweep tests: quarantine after one attempt with typed
 * per-cell errors and graceful degradation of the rest of the matrix,
 * store-backed resume serving bit-identical results, the quarantine
 * skip/rerun tiers, and the wall-clock deadline surfacing as a typed
 * Timeout.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "harness/result_store.hh"
#include "harness/supervisor.hh"
#include "obs/export.hh"
#include "trace/registry.hh"
#include "verify/fault_injector.hh"
#include "verify/sim_error.hh"

namespace berti::harness
{

namespace
{

SimParams
quick()
{
    SimParams p;
    p.warmupInstructions = 2000;
    p.measureInstructions = 10000;
    return p;
}

std::string
freshDir(const std::string &name)
{
    return ::testing::TempDir() + "/" + name + "." +
           std::to_string(::getpid());
}

std::vector<Workload>
workloadsByName(const std::vector<std::string> &names)
{
    std::vector<Workload> out;
    for (const std::string &n : names)
        out.push_back(findWorkload(n));
    return out;
}

std::vector<PrefetcherSpec>
specsByName(const std::vector<std::string> &names)
{
    std::vector<PrefetcherSpec> out;
    for (const std::string &n : names)
        out.push_back(makeSpec(n));
    return out;
}

const CellResult &
cellOf(const SweepReport &report, const std::string &spec,
       const std::string &workload)
{
    for (std::size_t s = 0; s < report.specs.size(); ++s) {
        for (std::size_t w = 0; w < report.workloads.size(); ++w) {
            if (report.specs[s] == spec && report.workloads[w] == workload)
                return report.cells[s][w];
        }
    }
    throw std::out_of_range(spec + "/" + workload);
}

} // namespace

TEST(Supervisor, StoreCombinedWithFaultInjectionIsRefused)
{
    // paramsFingerprint cannot see the fault injector, so a perturbed
    // cell would be cached under the clean key and served to later
    // clean sweeps. The supervisor refuses the combination outright.
    ResultStore store(freshDir("berti_sup_faults"));
    verify::FaultInjector faults;  // even an all-zero-rate injector
    SimParams params = quick();
    params.faults = &faults;

    SupervisorConfig cfg;
    cfg.store = &store;
    try {
        runSupervisedMatrix(workloadsByName({"mcf-like.472"}),
                            specsByName({"none"}), params, cfg);
        FAIL() << "expected verify::SimError";
    } catch (const verify::SimError &e) {
        EXPECT_EQ(e.kind(), verify::ErrorKind::Config);
        EXPECT_NE(e.reason().find("fault injection"), std::string::npos)
            << e.reason();
    }
    // Nothing was simulated or cached under a poisoned key.
    EXPECT_FALSE(
        store.contains(makeStoreKey("mcf-like.472", "none", params)));

    // The same campaign without a store is allowed (and runs jobs=1).
    cfg.store = nullptr;
    SweepReport report =
        runSupervisedMatrix(workloadsByName({"mcf-like.472"}),
                            specsByName({"none"}), params, cfg);
    EXPECT_TRUE(report.allOk());
}

TEST(Supervisor, PersistentFailureIsQuarantinedWithoutFailingTheRest)
{
    ResultStore store(freshDir("berti_sup_quar"));
    SupervisorConfig cfg;
    cfg.store = &store;
    std::atomic<unsigned> bad_attempts{0};
    cfg.preAttempt = [&bad_attempts](const std::string &workload,
                                     const std::string &spec, unsigned) {
        if (spec == "berti" && workload == "mcf-like.472") {
            ++bad_attempts;
            throw verify::SimError(verify::ErrorKind::Fault, "test",
                                   "deterministic crash");
        }
    };

    SweepReport report = runSupervisedMatrix(
        workloadsByName({"mcf-like.472", "cactu-like.709"}),
        specsByName({"none", "berti"}), quick(), cfg);

    // Graceful degradation: the poisoned cell carries its typed error,
    // every other cell completed normally.
    const CellResult &bad = cellOf(report, "berti", "mcf-like.472");
    EXPECT_EQ(bad.outcome, CellOutcome::Quarantined);
    // Deterministic: the one attempt is final, no retry.
    EXPECT_EQ(bad_attempts.load(), 1u);
    ASSERT_TRUE(bad.error.has);
    EXPECT_EQ(bad.error.kind, verify::ErrorKind::Fault);
    EXPECT_NE(bad.error.reason.find("deterministic crash"),
              std::string::npos);

    EXPECT_EQ(report.quarantined, 1u);
    EXPECT_EQ(report.computed, 3u);
    EXPECT_FALSE(report.allOk());

    // The on-disk marker records the failure for the next sweep.
    StoreKey key = makeStoreKey("mcf-like.472", "berti", quick());
    auto marker = store.loadQuarantine(key);
    ASSERT_TRUE(marker.has_value());
    EXPECT_NE(marker->find("deterministic crash"), std::string::npos);
}

TEST(Supervisor, QuarantinedCellsAreSkippedUntilRerunFailed)
{
    ResultStore store(freshDir("berti_sup_rerun"));
    StoreKey key = makeStoreKey("mcf-like.472", "none", quick());
    store.markQuarantined(key, "fault from an earlier sweep");

    SupervisorConfig cfg;
    cfg.store = &store;
    std::atomic<unsigned> attempts{0};
    cfg.preAttempt = [&attempts](const std::string &, const std::string &,
                                 unsigned) { ++attempts; };
    SweepReport skipped =
        runSupervisedMatrix(workloadsByName({"mcf-like.472"}),
                            specsByName({"none"}), quick(), cfg);
    const CellResult &cell = cellOf(skipped, "none", "mcf-like.472");
    EXPECT_EQ(cell.outcome, CellOutcome::SkippedQuarantined);
    EXPECT_EQ(attempts.load(), 0u);
    EXPECT_NE(cell.error.reason.find("earlier sweep"), std::string::npos);

    cfg.rerunFailed = true;
    SweepReport rerun =
        runSupervisedMatrix(workloadsByName({"mcf-like.472"}),
                            specsByName({"none"}), quick(), cfg);
    EXPECT_EQ(cellOf(rerun, "none", "mcf-like.472").outcome,
              CellOutcome::Computed);
    // Success lifted the marker.
    EXPECT_FALSE(store.loadQuarantine(key).has_value());
}

TEST(Supervisor, StoreResumeServesBitIdenticalResults)
{
    ResultStore store(freshDir("berti_sup_resume"));
    SupervisorConfig cfg;
    cfg.store = &store;
    auto workloads = workloadsByName({"mcf-like.472", "cactu-like.709"});
    auto specs = specsByName({"none", "berti"});

    SweepReport first =
        runSupervisedMatrix(workloads, specs, quick(), cfg);
    EXPECT_EQ(first.computed, 4u);
    EXPECT_EQ(first.fromStore, 0u);

    // The "resumed" sweep recomputes nothing and its per-cell exports
    // are byte-identical to the uninterrupted run's.
    std::atomic<unsigned> attempts{0};
    cfg.preAttempt = [&attempts](const std::string &, const std::string &,
                                 unsigned) { ++attempts; };
    SweepReport second =
        runSupervisedMatrix(workloads, specs, quick(), cfg);
    EXPECT_EQ(second.fromStore, 4u);
    EXPECT_EQ(second.computed, 0u);
    EXPECT_EQ(attempts.load(), 0u);

    for (std::size_t s = 0; s < specs.size(); ++s) {
        for (std::size_t w = 0; w < workloads.size(); ++w) {
            EXPECT_EQ(
                obs::toJson(resultSnapshot(second.cells[s][w].result)),
                obs::toJson(resultSnapshot(first.cells[s][w].result)))
                << specs[s].name << "/" << workloads[w].name;
        }
    }
}

TEST(Supervisor, WallClockDeadlineBecomesTypedTimeout)
{
    SimParams params;
    params.warmupInstructions = 1000;
    params.measureInstructions = 50'000'000;  // cannot finish in 1 ms
    params.wallClockBudgetMs = 1;

    SupervisorConfig cfg;
    SweepReport report =
        runSupervisedMatrix(workloadsByName({"mcf-like.472"}),
                            specsByName({"none"}), params, cfg);
    const CellResult &cell = cellOf(report, "none", "mcf-like.472");
    EXPECT_EQ(cell.outcome, CellOutcome::Quarantined);
    ASSERT_TRUE(cell.error.has);
    EXPECT_EQ(cell.error.kind, verify::ErrorKind::Timeout);
    EXPECT_NE(cell.error.reason.find("wall-clock"), std::string::npos);
}

TEST(Supervisor, NonSimErrorExceptionsAreTypedAsWorkerFailures)
{
    SupervisorConfig cfg;
    cfg.preAttempt = [](const std::string &, const std::string &,
                        unsigned) {
        throw std::runtime_error("worker fell over");
    };
    SweepReport report =
        runSupervisedMatrix(workloadsByName({"mcf-like.472"}),
                            specsByName({"none"}), quick(), cfg);
    const CellResult &cell = cellOf(report, "none", "mcf-like.472");
    EXPECT_EQ(cell.outcome, CellOutcome::Quarantined);
    EXPECT_EQ(cell.error.kind, verify::ErrorKind::Worker);
    EXPECT_NE(cell.error.reason.find("fell over"), std::string::npos);
}

} // namespace berti::harness
