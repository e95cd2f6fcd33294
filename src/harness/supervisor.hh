/**
 * @file
 * Supervised matrix execution: the one runner every sweep goes through
 * (the figures program, sweep_tool and the repository benchmark). Every
 * cell gets
 *
 *  - a result-store lookup first, so interrupted sweeps resume from
 *    the cells that already completed,
 *  - a wall-clock deadline (SimParams::wallClockBudgetMs, enforced
 *    inside Machine::run as a typed Timeout error),
 *  - quarantine on failure: the simulator is deterministic, so a cell
 *    that failed once fails the same way again. After its one attempt
 *    the failure is recorded as a typed per-cell error plus an on-disk
 *    marker, and the rest of the matrix keeps running. --rerun-failed
 *    (SupervisorConfig::rerunFailed) is the retry.
 *
 * The supervisor state machine per cell:
 *
 *   quarantined marker present and !rerunFailed -> SkippedQuarantined
 *   store hit                                   -> FromStore
 *   simulation succeeds                         -> Computed
 *   simulation throws                           -> Quarantined (marker)
 */

#ifndef BERTI_HARNESS_SUPERVISOR_HH
#define BERTI_HARNESS_SUPERVISOR_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "harness/parallel.hh"
#include "harness/result_store.hh"
#include "verify/sim_error.hh"

namespace berti::harness
{

/** How one supervised cell reached its final state. */
enum class CellOutcome : std::uint8_t
{
    Computed,            //!< simulated
    FromStore,           //!< served from the result store
    Quarantined,         //!< the simulation failed; marker written
    SkippedQuarantined   //!< marker from an earlier sweep, not rerun
};

const char *cellOutcomeName(CellOutcome outcome);

/** Final state of one (workload, spec) cell. */
struct CellResult
{
    std::string workload;
    std::string spec;
    CellOutcome outcome = CellOutcome::Computed;
    SimResult result;          //!< meaningful when ok()

    /** Last failure, when outcome is (Skipped)Quarantined. SimError is
     *  not default-constructible, so the fields travel unpacked. */
    struct Error
    {
        bool has = false;
        verify::ErrorKind kind = verify::ErrorKind::Worker;
        std::string component;
        std::string reason;
    } error;

    bool ok() const
    {
        return outcome == CellOutcome::Computed ||
               outcome == CellOutcome::FromStore;
    }
};

struct SupervisorConfig
{
    /** Optional result store (null = recompute everything). Refused
     *  (typed Config error) when the SimParams carry a fault injector:
     *  fault-perturbed results would share store keys with clean runs
     *  and poison the cache. */
    const ResultStore *store = nullptr;

    /** Retry cells an earlier sweep quarantined (clears their markers
     *  first) instead of skipping them. */
    bool rerunFailed = false;

    /** Worker threads (0 = parallelJobCount()); forced to 1 when any
     *  cell's SimParams carry a fault injector, whose draw sequence
     *  must not depend on thread interleaving. */
    unsigned jobs = 0;

    ProgressFn progress;

    /**
     * Test hook, called before every simulation with (workload, spec,
     * attempt); attempt is always 1. A throw from here counts as the
     * cell's failure — how the tests script "always crashes" cells
     * without touching the simulator.
     */
    std::function<void(const std::string &workload,
                       const std::string &spec, unsigned attempt)>
        preAttempt;
};

/** Cells per final outcome. */
struct SweepCounts
{
    std::size_t computed = 0;
    std::size_t fromStore = 0;
    std::size_t quarantined = 0;
    std::size_t skippedQuarantined = 0;

    void add(CellOutcome outcome);

    bool allOk() const { return quarantined + skippedQuarantined == 0; }

    /** One-line human summary, e.g. "12 computed, 3 from store, ...". */
    std::string summary() const;
};

/** Outcome of a whole supervised matrix. */
struct SweepReport : SweepCounts
{
    std::vector<std::string> workloads;
    std::vector<std::string> specs;

    /** cells[s][w] matches specs[s] x workloads[w]. */
    std::vector<std::vector<CellResult>> cells;
};

/** One cell of a supervised run; the pointees must outlive the call. */
struct CellRequest
{
    const Workload *workload = nullptr;
    const PrefetcherSpec *spec = nullptr;
    const SimParams *params = nullptr;
};

/**
 * Run a list of cells under supervision on one pool: out[i] is the
 * final state of cells[i]. Cells may mix params (the figures program
 * runs every distinct cell of every figure in one call). Partial
 * results by design: a crashing cell ends up Quarantined with its
 * typed error while every other cell completes normally. The call
 * throws only for misuse: a result store combined with fault
 * injection.
 */
std::vector<CellResult> runSupervisedCells(
    const std::vector<CellRequest> &cells,
    const SupervisorConfig &config = {});

/** Run specs x workloads under one params through runSupervisedCells. */
SweepReport runSupervisedMatrix(const std::vector<Workload> &workloads,
                                const std::vector<PrefetcherSpec> &specs,
                                const SimParams &params = {},
                                const SupervisorConfig &config = {});

} // namespace berti::harness

#endif // BERTI_HARNESS_SUPERVISOR_HH
