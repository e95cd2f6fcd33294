#include "harness/supervisor.hh"

namespace berti::harness
{

namespace
{

void
recordError(CellResult &cell, const verify::SimError &e)
{
    cell.error.has = true;
    cell.error.kind = e.kind();
    cell.error.component = e.component();
    cell.error.reason = e.reason();
}

/** Run one cell through the supervisor state machine. */
CellResult
superviseCell(const Workload &workload, const PrefetcherSpec &spec,
              const SimParams &params, const SupervisorConfig &cfg)
{
    CellResult cell;
    cell.workload = workload.name;
    cell.spec = spec.name;

    StoreKey key = makeStoreKey(workload, spec.name, params);

    if (cfg.store) {
        auto quarantine = cfg.store->loadQuarantine(key);
        if (quarantine) {
            if (!cfg.rerunFailed) {
                cell.outcome = CellOutcome::SkippedQuarantined;
                cell.error.has = true;
                cell.error.kind = verify::ErrorKind::Worker;
                cell.error.component = "Supervisor";
                cell.error.reason = "quarantined by an earlier sweep: " +
                                    *quarantine;
                return cell;
            }
            cfg.store->clearQuarantine(key);
        }

        if (auto cached = cfg.store->load(key)) {
            cell.outcome = CellOutcome::FromStore;
            cell.result = resultFromSnapshot(*cached);
            return cell;
        }
    }

    try {
        if (cfg.preAttempt)
            cfg.preAttempt(workload.name, spec.name, 1);
        cell.result = simulate(workload, spec, params);
        cell.outcome = CellOutcome::Computed;
        if (cfg.store)
            cfg.store->store(key, resultSnapshot(cell.result));
        return cell;
    } catch (const verify::SimError &e) {
        recordError(cell, e);
    } catch (const std::exception &e) {
        cell.error.has = true;
        cell.error.kind = verify::ErrorKind::Worker;
        cell.error.component = "Supervisor";
        cell.error.reason = e.what();
    }

    cell.outcome = CellOutcome::Quarantined;
    if (cfg.store) {
        cfg.store->markQuarantined(
            key, std::string(verify::errorKindName(cell.error.kind)) +
                     ": " + cell.error.reason);
    }
    return cell;
}

} // namespace

const char *
cellOutcomeName(CellOutcome outcome)
{
    switch (outcome) {
      case CellOutcome::Computed:
        return "computed";
      case CellOutcome::FromStore:
        return "from-store";
      case CellOutcome::Quarantined:
        return "quarantined";
      case CellOutcome::SkippedQuarantined:
        return "skipped-quarantined";
    }
    return "unknown";
}

void
SweepCounts::add(CellOutcome outcome)
{
    switch (outcome) {
      case CellOutcome::Computed:
        ++computed;
        break;
      case CellOutcome::FromStore:
        ++fromStore;
        break;
      case CellOutcome::Quarantined:
        ++quarantined;
        break;
      case CellOutcome::SkippedQuarantined:
        ++skippedQuarantined;
        break;
    }
}

std::string
SweepCounts::summary() const
{
    return std::to_string(computed) + " computed, " +
           std::to_string(fromStore) + " from store, " +
           std::to_string(quarantined) + " quarantined, " +
           std::to_string(skippedQuarantined) + " skipped-quarantined";
}

std::vector<CellResult>
runSupervisedCells(const std::vector<CellRequest> &cells,
                   const SupervisorConfig &config)
{
    // A shared fault injector's draw sequence must not depend on thread
    // interleaving, so fault campaigns run on one worker.
    bool faults = false;
    for (const CellRequest &c : cells)
        faults = faults || c.params->faults;
    if (config.store && faults) {
        // paramsFingerprint cannot see the injector's configuration or
        // RNG state, so a fault-perturbed cell would hash to the same
        // store key as a clean run — poisoning the cache for every
        // later clean sweep. Refuse the combination outright.
        throw verify::SimError(
            verify::ErrorKind::Config, "Supervisor",
            "a result store cannot be combined with fault injection: "
            "fault-perturbed results share store keys with clean runs "
            "and would be served to later clean sweeps — run fault "
            "campaigns without a store");
    }

    std::vector<CellResult> out(cells.size());
    forEachIndexParallel(
        cells.size(),
        [&](std::size_t i) {
            const CellRequest &c = cells[i];
            out[i] = superviseCell(*c.workload, *c.spec, *c.params, config);
        },
        faults ? 1 : config.jobs, config.progress);
    return out;
}

SweepReport
runSupervisedMatrix(const std::vector<Workload> &workloads,
                    const std::vector<PrefetcherSpec> &specs,
                    const SimParams &params, const SupervisorConfig &config)
{
    std::vector<CellRequest> requests;
    requests.reserve(specs.size() * workloads.size());
    for (const PrefetcherSpec &s : specs) {
        for (const Workload &w : workloads)
            requests.push_back({&w, &s, &params});
    }
    std::vector<CellResult> flat = runSupervisedCells(requests, config);

    SweepReport report;
    for (const Workload &w : workloads)
        report.workloads.push_back(w.name);
    for (const PrefetcherSpec &s : specs)
        report.specs.push_back(s.name);
    report.cells.resize(specs.size());
    for (std::size_t s = 0; s < specs.size(); ++s) {
        for (std::size_t w = 0; w < workloads.size(); ++w) {
            CellResult &cell = flat[s * workloads.size() + w];
            report.add(cell.outcome);
            report.cells[s].push_back(std::move(cell));
        }
    }
    return report;
}

} // namespace berti::harness
