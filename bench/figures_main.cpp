/**
 * @file
 * figures: regenerate the paper's tables, figures and ablations.
 *
 *   figures <out-dir> [entry...] [SimOptions flags]
 *
 * Runs the named entries of the figure table (all of them when none is
 * named) and writes <out-dir>/<entry>.txt plus the per-cell stats
 * sidecars under <out-dir>/stats/<entry>/. Each distinct cell is
 * simulated once; the result store under <out-dir>/log/store lets a
 * killed run resume. The BERTI_* environment (and the matching
 * SimOptions flags, e.g. --quick) sets lengths, sampling, backends and
 * the worker count. Exit status: 0 when every entry was written, 1
 * otherwise.
 */

#include <iostream>
#include <string>
#include <vector>

#include "figures.hh"

int
main(int argc, char **argv)
{
    using namespace berti;
    using namespace berti::bench;

    try {
        sim::SimOptions opt = sim::SimOptions::fromEnvAndArgs(argc, argv);
        if (argc < 2) {
            std::cerr << "usage: figures <out-dir> [entry...]\n";
            return 1;
        }
        std::vector<Figure> table = figureTable();
        std::vector<Figure> selected;
        for (int i = 2; i < argc; ++i) {
            bool found = false;
            for (const Figure &f : table) {
                if (f.name == argv[i]) {
                    selected.push_back(f);
                    found = true;
                }
            }
            if (!found) {
                std::cerr << "figures: unknown entry '" << argv[i] << "'\n";
                return 1;
            }
        }
        FiguresReport report =
            runFigures(selected.empty() ? table : selected, argv[1], opt);
        return report.failed.empty() ? 0 : 1;
    } catch (const std::exception &e) {
        std::cerr << "figures: error: " << e.what() << "\n";
        return 1;
    }
}
