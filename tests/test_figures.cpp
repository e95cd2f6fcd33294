/**
 * @file
 * runFigures tests: cell identity follows the spec's definition,
 * not its label; a cell requested by several entries is simulated
 * once; outputs are independent of the worker count; params variants
 * get their own sidecar directories; a declaration that would write one
 * sidecar path twice is refused before anything runs; and the entries
 * that drive Machines themselves honour the memory backend.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <map>
#include <ostream>
#include <set>
#include <sstream>
#include <string>

#include "figures.hh"
#include "obs/export.hh"
#include "trace/registry.hh"
#include "verify/sim_error.hh"

namespace berti::bench
{

namespace
{

namespace fs = std::filesystem;
using Matrices = std::vector<Matrix>;

/** An empty per-process directory, removed again at scope exit. */
struct ScratchDir
{
    explicit ScratchDir(const std::string &name)
        : path(::testing::TempDir() + "/" + name + "." +
               std::to_string(::getpid()))
    {
        fs::remove_all(path);
    }
    ~ScratchDir() { fs::remove_all(path); }

    const std::string path;
};

SimParams
tiny()
{
    SimParams p;
    p.warmupInstructions = 2000;
    p.measureInstructions = 8000;
    return p;
}

Column
registryColumn(const std::string &name)
{
    return {name, makeSpec(name)};
}

/** A matrix of registry specs on named workloads at tiny params. */
Matrix
matrix(const std::vector<std::string> &workloads,
       const std::vector<Column> &columns)
{
    Matrix m;
    m.params = tiny();
    for (const std::string &w : workloads)
        m.workloads.push_back(findWorkload(w));
    m.columns = columns;
    return m;
}

/** Prints every cell's IPC, so the .txt depends on every result. */
void
printIpcs(const sim::SimOptions &, const Matrices &ms, std::ostream &os)
{
    for (const Matrix &m : ms) {
        for (std::size_t c = 0; c < m.columns.size(); ++c) {
            for (std::size_t w = 0; w < m.workloads.size(); ++w) {
                os << m.columns[c].label << " " << m.workloads[w].name
                   << " " << m.results[c][w].ipc << "\n";
            }
        }
    }
}

Figure
entry(const std::string &name, Matrices ms)
{
    return {name, [ms](const sim::SimOptions &) { return ms; }, printIpcs};
}

/** Every file under dir except the log/ subtree, by relative path. */
std::map<std::string, std::string>
outputTree(const std::string &dir)
{
    std::map<std::string, std::string> files;
    for (const auto &e : fs::recursive_directory_iterator(dir)) {
        std::string rel = fs::relative(e.path(), dir).string();
        if (e.is_regular_file() && rel.rfind("log/", 0) != 0)
            files[rel] = obs::readFile(e.path().string());
    }
    return files;
}

sim::SimOptions
withJobs(unsigned jobs)
{
    sim::SimOptions opt;
    opt.jobs = jobs;
    return opt;
}

} // namespace

TEST(Figures, BertiConfigsUnderOneLabelNeverShareACell)
{
    // Both columns are labelled "berti" (as fig21's and fig22's are);
    // only the configuration tells them apart.
    BertiConfig all_deltas;
    all_deltas.issueAllDeltas = true;
    Matrix m = matrix({"stream-like.1"},
                      {{"berti", makeBertiSpec(BertiConfig{})},
                       {"berti", makeBertiSpec(all_deltas)}});
    ScratchDir dir("berti_figures_identity");
    FiguresReport r =
        runFigures({entry("identity", {m})}, dir.path, withJobs(2));

    EXPECT_TRUE(r.failed.empty());
    EXPECT_EQ(r.requested, 2u);
    EXPECT_EQ(r.distinct, 2u);
    EXPECT_EQ(r.sweep.computed, 2u);
    std::string stats = dir.path + "/stats/identity/";
    EXPECT_NE(obs::readFile(stats + "berti__stream-like.1.json"),
              obs::readFile(stats + "berti__stream-like.1.1.json"));
}

TEST(Figures, CellSharedByTwoEntriesIsComputedOnce)
{
    std::vector<Figure> figs = {
        entry("first", {matrix({"mcf-like.472"}, {registryColumn("none"),
                                                  registryColumn("berti")})}),
        // "berti (full)" is the default config: the same cell as
        // "berti" above, under another label.
        entry("second",
              {matrix({"mcf-like.472"},
                      {{"berti (full)", makeBertiSpec(BertiConfig{})},
                       registryColumn("ip-stride")})}),
    };
    ScratchDir dir("berti_figures_shared");
    FiguresReport first = runFigures(figs, dir.path, withJobs(2));
    EXPECT_TRUE(first.failed.empty());
    EXPECT_EQ(first.requested, 4u);
    EXPECT_EQ(first.distinct, 3u);
    EXPECT_EQ(first.sweep.computed, 3u);
    EXPECT_EQ(first.sweep.fromStore, 0u);
    const std::string stats = dir.path + "/stats/";
    EXPECT_EQ(obs::readFile(stats + "first/berti__mcf-like.472.json"),
              obs::readFile(stats + "second/berti--full-__mcf-like.472.json"));

    // A second run resumes everything from the store, byte for byte.
    auto tree = outputTree(dir.path);
    FiguresReport again = runFigures(figs, dir.path, withJobs(2));
    EXPECT_EQ(again.sweep.computed, 0u);
    EXPECT_EQ(again.sweep.fromStore, 3u);
    EXPECT_EQ(outputTree(dir.path), tree);
}

TEST(Figures, OutputsAreIdenticalForOneAndFourJobs)
{
    Matrix m = matrix({"mcf-like.472", "stream-like.1"},
                      {registryColumn("none"), registryColumn("ip-stride"),
                       registryColumn("berti")});
    ScratchDir one("berti_figures_jobs1");
    ScratchDir four("berti_figures_jobs4");
    EXPECT_TRUE(runFigures({entry("tiny", {m})}, one.path, withJobs(1))
                    .failed.empty());
    EXPECT_TRUE(runFigures({entry("tiny", {m})}, four.path, withJobs(4))
                    .failed.empty());
    auto a = outputTree(one.path);
    EXPECT_EQ(a.size(), 7u);  // tiny.txt + 6 sidecars
    EXPECT_EQ(a, outputTree(four.path));
}

TEST(Figures, ParamsVariantsGetTheirOwnSidecarDirectories)
{
    // fig16's shape: the same labels and workloads at two DRAM rates.
    Matrices ms;
    for (unsigned mtps : {6400u, 1600u}) {
        Matrix m = matrix({"stream-like.1"}, {registryColumn("berti")});
        m.params.dramMtps = mtps;
        m.variant = "mtps-" + std::to_string(mtps);
        ms.push_back(m);
    }
    ScratchDir dir("berti_figures_variants");
    FiguresReport r =
        runFigures({entry("dram", ms)}, dir.path, withJobs(2));
    EXPECT_TRUE(r.failed.empty());
    EXPECT_EQ(r.distinct, 2u);
    std::string stats = dir.path + "/stats/dram/";
    EXPECT_NE(obs::readFile(stats + "mtps-6400/berti__stream-like.1.json"),
              obs::readFile(stats + "mtps-1600/berti__stream-like.1.json"));
}

TEST(Figures, DuplicateSidecarPathIsRefusedBeforeSimulating)
{
    // Workloads "w" and "w.1" under two columns labelled "a": the
    // second column's "a__w" takes the ".1" suffix and lands on the
    // first column's "a__w.1".
    Matrix m;
    m.params = tiny();
    for (const char *name : {"w", "w.1"}) {
        Workload w = findWorkload("mcf-like.472");
        w.name = name;
        m.workloads.push_back(w);
    }
    m.columns = {{"a", makeSpec("none")}, {"a", makeSpec("berti")}};
    ScratchDir dir("berti_figures_dup");
    try {
        runFigures({entry("dup", {m})}, dir.path, withJobs(1));
        FAIL() << "expected verify::SimError";
    } catch (const verify::SimError &e) {
        EXPECT_EQ(e.kind(), verify::ErrorKind::Config);
        EXPECT_NE(e.reason().find("a__w.1.json"), std::string::npos)
            << e.reason();
    }
    EXPECT_FALSE(fs::exists(dir.path + "/log/store"));
}

TEST(Figures, BespokeMachinesRunOnTheRequestedMemoryBackend)
{
    // fig03 and abl_l1i_prefetch drive Machines themselves. The backend
    // must reach them as it reaches every matrix cell, so an unknown one
    // is refused instead of silently simulated on the default DRAM.
    sim::SimOptions opt;
    opt.benchQuick = true;
    opt.memBackend = "no-such-backend";
    unsigned checked = 0;
    for (const Figure &f : figureTable()) {
        if (f.name != "fig03_local_vs_global" &&
            f.name != "abl_l1i_prefetch")
            continue;
        ++checked;
        Matrices ms;
        if (f.cells)
            ms = f.cells(opt);
        for (Matrix &m : ms) {
            m.results.assign(m.columns.size(),
                             std::vector<SimResult>(m.workloads.size()));
        }
        std::ostringstream os;
        try {
            f.report(opt, ms, os);
            ADD_FAILURE() << f.name << " ignored the memory backend";
        } catch (const verify::SimError &e) {
            EXPECT_EQ(e.kind(), verify::ErrorKind::Config) << f.name;
            EXPECT_NE(e.reason().find("no-such-backend"), std::string::npos)
                << f.name << ": " << e.reason();
        }
    }
    EXPECT_EQ(checked, 2u);
}

TEST(Figures, TableNamesAreTheHistoricalOutputNames)
{
    std::set<std::string> names;
    for (const Figure &f : figureTable()) {
        EXPECT_TRUE(names.insert(f.name).second) << f.name;
        EXPECT_TRUE(f.report) << f.name;
    }
    EXPECT_EQ(names.size(), 30u);
    for (const char *n : {"fig01_motivation", "fig16_dram_bw_l1d",
                          "fig24_mem_backends", "abl_l1i_prefetch",
                          "table1_storage", "related_work"})
        EXPECT_TRUE(names.count(n)) << n;
}

} // namespace berti::bench
