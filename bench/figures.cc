#include "figures.hh"

#include <filesystem>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <unordered_map>

#include "common.hh"
#include "harness/parallel.hh"
#include "harness/result_store.hh"
#include "obs/export.hh"
#include "verify/sim_error.hh"

namespace berti::bench
{

const std::vector<SimResult> &
Matrix::operator[](const std::string &label) const
{
    for (std::size_t c = 0; c < columns.size(); ++c) {
        if (columns[c].label == label)
            return results.at(c);
    }
    throw verify::SimError(verify::ErrorKind::Config, "figures",
                           "no column labelled '" + label + "'");
}

namespace
{

/** paths[m][c][w]: the sidecar of matrix m, column c, workload w. */
using SidecarPaths = std::vector<std::vector<std::vector<std::string>>>;

/**
 * Sidecar paths of one entry under `dir`. The stem is
 * <label>__<workload>; a stem already taken in the same directory gets
 * a ".N" suffix (fig21's fifteen "berti" columns), numbered in
 * matrix, column, workload order. A path that still repeats, in this
 * entry or an earlier one (`taken`), is a declaration error.
 */
SidecarPaths
sidecarPaths(const std::string &dir, const std::vector<Matrix> &matrices,
             std::set<std::string> &taken)
{
    SidecarPaths paths;
    std::map<std::string, unsigned> used;
    for (const Matrix &m : matrices) {
        std::string sub = dir;
        if (!m.variant.empty()) {
            sub += '/';
            sub += sanitizeLabel(m.variant);
        }
        auto &mp = paths.emplace_back();
        for (const Column &col : m.columns) {
            auto &cp = mp.emplace_back();
            for (const Workload &w : m.workloads) {
                std::string stem = sub + "/" + sanitizeLabel(col.label) +
                                   "__" + sanitizeLabel(w.name);
                if (unsigned n = used[stem]++; n > 0) {
                    stem += '.';
                    stem += std::to_string(n);
                }
                std::string path = stem + ".json";
                if (!taken.insert(path).second) {
                    throw verify::SimError(
                        verify::ErrorKind::Config, "figures",
                        "two cells would write the sidecar " + path);
                }
                cp.push_back(std::move(path));
            }
        }
    }
    return paths;
}

/** Remove the *.tmp staging files a killed run left under `dir`
 *  (obs::writeFile renames only complete files into place). */
void
removeStaleTempFilesUnder(const std::string &dir)
{
    namespace fs = std::filesystem;
    std::error_code ec;
    std::vector<fs::path> stale;
    for (fs::recursive_directory_iterator it(dir, ec), end;
         !ec && it != end; it.increment(ec)) {
        if (it->path().extension() == ".tmp")
            stale.push_back(it->path());
    }
    for (const fs::path &p : stale)
        fs::remove(p, ec);
}

std::string
cellFailure(const harness::CellResult &cell)
{
    return "cell " + cell.spec + "/" + cell.workload + " " +
           harness::cellOutcomeName(cell.outcome) + " [" +
           verify::errorKindName(cell.error.kind) + "] " +
           cell.error.reason;
}

} // namespace

FiguresReport
runFigures(const std::vector<Figure> &figures, const std::string &outDir,
           const sim::SimOptions &opt)
{
    FiguresReport report;

    // Plan every entry and its sidecar layout before simulating, so a
    // bad declaration fails fast.
    std::vector<std::vector<Matrix>> plans(figures.size());
    std::vector<SidecarPaths> sidecars(figures.size());
    std::set<std::string> taken;
    for (std::size_t f = 0; f < figures.size(); ++f) {
        if (figures[f].cells)
            plans[f] = figures[f].cells(opt);
        sidecars[f] = sidecarPaths(outDir + "/stats/" + figures[f].name,
                                   plans[f], taken);
    }

    // One request per distinct store key; slots[f] lists, in matrix,
    // column, workload order, which request serves each cell.
    std::vector<harness::CellRequest> requests;
    std::unordered_map<std::uint64_t, std::size_t> byKey;
    std::vector<std::vector<std::size_t>> slots(figures.size());
    for (std::size_t f = 0; f < figures.size(); ++f) {
        for (const Matrix &m : plans[f]) {
            for (const Column &col : m.columns) {
                for (const Workload &w : m.workloads) {
                    std::uint64_t key =
                        harness::makeStoreKey(w, col.spec.name, m.params)
                            .hash();
                    auto [it, fresh] = byKey.emplace(key, requests.size());
                    if (fresh)
                        requests.push_back({&w, &col.spec, &m.params});
                    slots[f].push_back(it->second);
                }
            }
        }
        report.requested += slots[f].size();
    }
    report.distinct = requests.size();

    removeStaleTempFilesUnder(outDir);
    harness::ResultStore store(outDir + "/log/store");
    harness::SupervisorConfig cfg;
    cfg.store = &store;
    cfg.jobs = opt.jobs;
    cfg.progress = stderrProgress("figures");
    std::vector<harness::CellResult> cells =
        harness::runSupervisedCells(requests, cfg);
    for (const harness::CellResult &cell : cells)
        report.sweep.add(cell.outcome);
    std::cerr << "figures: " << report.requested << " cells requested, "
              << report.distinct << " distinct: " << report.sweep.summary()
              << "\n";

    for (std::size_t f = 0; f < figures.size(); ++f) {
        const Figure &fig = figures[f];
        try {
            std::size_t next = 0;
            for (Matrix &m : plans[f]) {
                m.results.assign(m.columns.size(), {});
                for (auto &row : m.results) {
                    for (std::size_t w = 0; w < m.workloads.size(); ++w) {
                        const harness::CellResult &cell =
                            cells[slots[f][next++]];
                        if (!cell.ok()) {
                            throw verify::SimError(
                                verify::ErrorKind::Worker, "figures",
                                cellFailure(cell));
                        }
                        row.push_back(cell.result);
                    }
                }
            }

            std::ostringstream table;
            fig.report(opt, plans[f], table);
            obs::writeFile(outDir + "/" + fig.name + ".txt", table.str());

            for (std::size_t m = 0; m < plans[f].size(); ++m) {
                const Matrix &mat = plans[f][m];
                for (std::size_t c = 0; c < mat.columns.size(); ++c) {
                    for (std::size_t w = 0; w < mat.workloads.size(); ++w) {
                        obs::writeFile(
                            sidecars[f][m][c][w],
                            obs::toJson(resultSnapshot(mat.results[c][w])));
                    }
                }
            }
        } catch (const std::exception &e) {
            report.failed.push_back(fig.name + ": " + e.what());
            std::cerr << "figures: " << fig.name << " FAILED: " << e.what()
                      << "\n";
        }
    }
    return report;
}

} // namespace berti::bench
