/**
 * @file
 * The figure table and its runner. Every table, figure and ablation of
 * the paper is one Figure entry: the cells it reads (workload sets x
 * spec columns x params variants) and a reducer that prints its table
 * from the simulated grid. runFigures() collects the cells of every
 * selected entry, simulates each distinct cell once through the
 * supervised runner and its result store, then reduces the entries in
 * table order.
 */

#ifndef BERTI_BENCH_FIGURES_HH
#define BERTI_BENCH_FIGURES_HH

#include <cstddef>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "harness/supervisor.hh"
#include "sim/options.hh"

namespace berti::bench
{

/**
 * One spec column. The spec (its name included) is what is simulated
 * and keyed; the label is what the reducer looks the column up by and
 * what its sidecar files are named after. Several columns may share a
 * label (fig21's fifteen Berti configs are all "berti") and several
 * labels may share a cell (abl_mechanisms' "berti (full)" is "berti").
 */
struct Column
{
    std::string label;
    PrefetcherSpec spec;
};

/** Workloads x columns under one params variant. */
struct Matrix
{
    /** Params variant name: when non-empty, the matrix's sidecars go to
     *  their own subdirectory of the entry's (fig16's DRAM rates,
     *  fig24's memory backends). */
    std::string variant;
    SimParams params;
    std::vector<Workload> workloads;
    std::vector<Column> columns;

    /** results[c][w] for columns[c] on workloads[w], filled in by
     *  runFigures before the reducer runs. */
    std::vector<std::vector<SimResult>> results;

    /** The results of the first column labelled `label`; throws
     *  verify::SimError(ErrorKind::Config) when there is none. */
    const std::vector<SimResult> &operator[](const std::string &label) const;
};

/** One paper table, figure or ablation. */
struct Figure
{
    /** Output name: <out>/<name>.txt and <out>/stats/<name>/. */
    std::string name;

    /** The matrices this entry reads. Unset for entries that simulate
     *  nothing or drive machines themselves (multi-core mixes, an L1I
     *  prefetcher, table dumps). */
    std::function<std::vector<Matrix>(const sim::SimOptions &)> cells;

    /** Print the entry's table from its filled matrices. */
    std::function<void(const sim::SimOptions &, const std::vector<Matrix> &,
                       std::ostream &)>
        report;
};

/** Every entry, in the order runFigures reduces them. */
std::vector<Figure> figureTable();

/** What one runFigures call did. */
struct FiguresReport
{
    /** Cells the entries asked for, repeats included. */
    std::size_t requested = 0;
    /** Distinct cells, by result-store key. */
    std::size_t distinct = 0;
    /** Outcomes of the distinct cells. */
    harness::SweepCounts sweep;
    /** Entries that wrote no output, with the reason. */
    std::vector<std::string> failed;
};

/**
 * Simulate the distinct cells of `figures` once, on one pool, backed by
 * the result store <outDir>/log/store (so a killed run resumes), then
 * write each entry's <outDir>/<name>.txt and its stats sidecars
 * <outDir>/stats/<name>/[<variant>/]<label>__<workload>.json. A
 * declaration that would write one sidecar path twice is refused with
 * verify::SimError(ErrorKind::Config) before anything is simulated. An
 * entry whose cells or reducer fail is listed in `failed`; the others
 * are still written.
 */
FiguresReport runFigures(const std::vector<Figure> &figures,
                         const std::string &outDir,
                         const sim::SimOptions &opt);

} // namespace berti::bench

#endif // BERTI_BENCH_FIGURES_HH
