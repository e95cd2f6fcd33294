/**
 * @file
 * Golden-stats regression harness: replays a small fixed workload x
 * spec matrix, exports each cell through the stable JSON schema and
 * byte-compares against the checked-in goldens under tests/goldens/.
 * Any counter drift — an off-by-one in a prefetcher, a reordered stat,
 * an accidental double count — fails with a readable field-level diff.
 *
 * Regenerate the goldens after an *intentional* behaviour change with
 *     tools/update_goldens.sh
 * (or BERTI_UPDATE_GOLDENS=1 ctest -R test_golden) and commit the
 * resulting JSON files together with the change that justified them.
 */

#include <cstdlib>
#include <gtest/gtest.h>
#include <optional>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "obs/export.hh"
#include "sim/options.hh"
#include "sim/rng.hh"
#include "trace/registry.hh"
#include "verify/sim_error.hh"

#ifndef BERTI_GOLDEN_DIR
#error "BERTI_GOLDEN_DIR must point at the checked-in goldens"
#endif

namespace berti
{
namespace
{

/** The pinned matrix. Small enough to run in seconds, wide enough to
 *  cover the no-prefetch baseline and the paper's prefetcher across
 *  regular streams, interleaved strides (the per-IP-table-thrashing
 *  CactuBSSN regime) and a serial pointer chase (nothing timely). */
const std::vector<std::string> kWorkloads = {
    "mcf-like.472", "bwaves-like.2609", "cactu-like.709",
    "mcf-like.1536"};
const std::vector<std::string> kSpecs = {"none", "berti"};

/** Two hybrid composition cells ride along without quadrupling the
 *  matrix: the arbitration/selector path is pinned by goldens too. */
const std::vector<std::tuple<std::string, std::string>> kExtraCells = {
    {"mcf-like.472", "hybrid(berti,cmc)"},
    {"bwaves-like.2609", "hybrid(berti,markov;select=duel)"},
};

/** Pinned ROI; never derived from env so goldens cannot drift with
 *  BERTI_BENCH_QUICK or similar knobs. */
SimParams
goldenParams()
{
    SimParams p;
    p.warmupInstructions = 5000;
    p.measureInstructions = 20000;
    return p;
}

std::string
goldenPath(const std::string &workload, const std::string &spec)
{
    // Hybrid specs contain (),;= — flatten to filesystem-safe stems the
    // same way the result store does.
    std::string s = spec;
    for (char &c : s) {
        if (!((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
              c == '.' || c == '-'))
            c = '-';
    }
    return std::string(BERTI_GOLDEN_DIR) + "/" + workload + "__" + s +
           ".json";
}

bool
updateMode()
{
    return berti::sim::SimOptions::fromEnv().updateGoldens;
}

/**
 * Load and parse one golden, folding every failure mode — directory or
 * file missing, unreadable, truncated or otherwise corrupt JSON — into
 * one readable diagnostic naming the regeneration command, instead of
 * an unhandled SimError unwinding through gtest. Returns nullopt and
 * fills `error` on failure.
 */
std::optional<obs::MetricsSnapshot>
loadGolden(const std::string &path, std::string *error)
{
    std::string text;
    try {
        text = obs::readFile(path);
    } catch (const verify::SimError &e) {
        *error = std::string("missing or unreadable golden ") + path +
                 " [" + verify::errorKindName(e.kind()) + "] " +
                 e.reason() +
                 " — run tools/update_goldens.sh and commit the result";
        return std::nullopt;
    }
    try {
        obs::MetricsSnapshot snap = obs::snapshotFromJson(text, path);
        return snap;
    } catch (const verify::SimError &e) {
        *error = std::string("corrupt or truncated golden ") + path +
                 " [" + verify::errorKindName(e.kind()) + "] " +
                 e.reason() +
                 " — if the file was damaged (e.g. a truncated "
                 "checkout), restore it from git; after an intentional "
                 "schema change run tools/update_goldens.sh";
        return std::nullopt;
    }
}

/**
 * Byte-compare one cell's exported JSON against its golden, or rewrite
 * the golden in update mode. `cell` names the cell in failure messages.
 */
void
checkAgainstGolden(const std::string &cell, const std::string &path,
                   const std::string &actual_json)
{
    if (updateMode()) {
        obs::writeFile(path, actual_json);
        GTEST_SKIP() << "updated golden " << path;
    }

    std::string error;
    std::optional<obs::MetricsSnapshot> expected =
        loadGolden(path, &error);
    if (!expected)
        FAIL() << error;

    // loadGolden proved the file reads and parses; the byte compare is
    // now safe and stays the bit-identical common case.
    if (obs::readFile(path) == actual_json)
        return;

    // Not identical: produce a field-level diff instead of two JSON
    // blobs, so the failing counter is named directly.
    obs::MetricsSnapshot actual =
        obs::snapshotFromJson(actual_json, "simulated");
    auto diffs = obs::diffSnapshots(*expected, actual);
    ASSERT_FALSE(diffs.empty())
        << "golden " << path
        << " differs only in formatting — regenerate it with "
           "tools/update_goldens.sh";
    FAIL() << cell << ": " << diffs.size() << " field(s) drifted from "
           << path << "\n"
           << obs::formatDiff(diffs);
}

class GoldenTest : public ::testing::TestWithParam<
                       std::tuple<std::string, std::string>>
{};

TEST_P(GoldenTest, MatchesCheckedInStats)
{
    const auto &[workload, spec] = GetParam();
    SimResult r =
        simulate(findWorkload(workload), makeSpec(spec), goldenParams());
    checkAgainstGolden(workload + " x " + spec, goldenPath(workload, spec),
                       obs::toJson(resultSnapshot(r)));
}

std::vector<std::tuple<std::string, std::string>>
goldenMatrix()
{
    std::vector<std::tuple<std::string, std::string>> cells;
    for (const auto &w : kWorkloads)
        for (const auto &s : kSpecs)
            cells.emplace_back(w, s);
    for (const auto &c : kExtraCells)
        cells.push_back(c);
    return cells;
}

std::string
cellName(const ::testing::TestParamInfo<
         std::tuple<std::string, std::string>> &info)
{
    std::string n = std::get<0>(info.param) + "_" +
                    std::get<1>(info.param);
    for (char &c : n) {
        if (!((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9')))
            c = '_';
    }
    return n;
}

INSTANTIATE_TEST_SUITE_P(Matrix, GoldenTest,
                         ::testing::ValuesIn(goldenMatrix()), cellName);

/** Multi-core goldens: Fig. 20's first 4-core mix (drawn from the
 *  SPEC+GAP pool with the figure's seed) x berti on a shared LLC, under
 *  the default single-channel ddr4 backend and under the multi-channel
 *  hbm model. These pin the paths the single-core matrix never reaches:
 *  LLC misses retried while DRAM's read queue is full, and on hbm one
 *  channel full while another has room. hbm runs two channels: at its
 *  default eight, the channels' read queues hold 256 reads, as many as
 *  the LLC has MSHRs, and on this mix none of them ever fills. */
const std::vector<std::string> kMixBackends = {"", "dram:hbm;channels=2"};

std::vector<Workload>
fig20FirstMix()
{
    std::vector<Workload> pool = specGapWorkloads();
    Rng rng(0x20221001);
    std::vector<Workload> mix;
    for (unsigned c = 0; c < 4; ++c)
        mix.push_back(pool[rng.nextBounded(pool.size())]);
    return mix;
}

std::string
mixGoldenPath(const std::string &backend)
{
    return goldenPath("mix4-fig20.0",
                      "berti" + (backend.empty() ? "" : "@" + backend));
}

/** One snapshot per core, merged under "core<i>." prefixes. */
obs::MetricsSnapshot
mixSnapshot(const std::vector<SimResult> &results)
{
    obs::MetricsSnapshot out;
    for (std::size_t c = 0; c < results.size(); ++c) {
        std::string prefix = "core" + std::to_string(c) + ".";
        obs::MetricsSnapshot core = resultSnapshot(results[c]);
        for (const auto &[name, v] : core.values()) {
            if (v.kind == obs::MetricKind::Counter)
                out.setCounter(prefix + name, v.u);
            else
                out.setGauge(prefix + name, v.d);
        }
    }
    return out;
}

class MixGoldenTest : public ::testing::TestWithParam<std::string>
{};

TEST_P(MixGoldenTest, MatchesCheckedInStats)
{
    const std::string &backend = GetParam();
    SimParams params = goldenParams();
    params.memBackend = backend;
    std::vector<SimResult> r =
        simulateMix(fig20FirstMix(), makeSpec("berti"), params);
    checkAgainstGolden(
        "4-core mix x berti on " + (backend.empty() ? "dram:ddr4" : backend),
        mixGoldenPath(backend), obs::toJson(mixSnapshot(r)));
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, MixGoldenTest, ::testing::ValuesIn(kMixBackends),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param.empty() ? std::string("ddr4")
                                  : std::string("hbm");
    });

/** The golden schema itself is pinned: parsing a golden back must give
 *  the same document, so future schema bumps are deliberate. */
TEST(GoldenSchema, GoldensRoundTripAtCurrentVersion)
{
    if (updateMode())
        GTEST_SKIP() << "goldens being regenerated";
    std::vector<std::string> paths;
    for (const auto &[w, s] : goldenMatrix())
        paths.push_back(goldenPath(w, s));
    for (const auto &backend : kMixBackends)
        paths.push_back(mixGoldenPath(backend));
    for (const std::string &path : paths) {
        std::string error;
        std::optional<obs::MetricsSnapshot> snap =
            loadGolden(path, &error);
        if (!snap)
            FAIL() << error;
        EXPECT_EQ(obs::toJson(*snap), obs::readFile(path)) << path;
        EXPECT_GT(snap->size(), 50u) << path;
    }
}

/** The failure modes themselves: a missing goldens directory and a
 *  truncated golden must come back as readable guidance naming the
 *  regeneration command, never as an unhandled exception. */
TEST(GoldenHarness, MissingAndTruncatedGoldensProduceReadableErrors)
{
    std::string dir = ::testing::TempDir() + "/berti_goldens_harness";

    // Missing directory / file.
    std::string error;
    EXPECT_FALSE(loadGolden(dir + "/no_such__golden.json", &error));
    EXPECT_NE(error.find("missing or unreadable golden"),
              std::string::npos)
        << error;
    EXPECT_NE(error.find("tools/update_goldens.sh"), std::string::npos)
        << error;

    // Truncated golden: take a real export, cut it mid-document.
    obs::MetricsSnapshot snap;
    snap.setCounter("core.instructions", 20000);
    snap.setGauge("ipc", 1.5);
    std::string json = obs::toJson(snap);
    std::string path = dir + "/truncated__golden.json";
    obs::writeFile(path, json.substr(0, json.size() / 2));

    error.clear();
    EXPECT_FALSE(loadGolden(path, &error));
    EXPECT_NE(error.find("corrupt or truncated golden"),
              std::string::npos)
        << error;
    EXPECT_NE(error.find(path), std::string::npos) << error;

    // And the intact document still loads, so the guard adds no false
    // positives.
    obs::writeFile(path, json);
    error.clear();
    std::optional<obs::MetricsSnapshot> back = loadGolden(path, &error);
    ASSERT_TRUE(back.has_value()) << error;
    EXPECT_TRUE(*back == snap);
}

} // namespace
} // namespace berti
