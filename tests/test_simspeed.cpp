/**
 * @file
 * Simulator-speed overhaul tests: the hot-path RingQueue (order kept
 * across wraps, growth and erases), the MSHR arena (no live-entry recycling, audited), the
 * quiescence cycle-skip's bit-identical-results invariant (golden
 * matrix cells, adversarial micro-traces, a multi-core mix, four cores
 * on a saturated DRAM read queue), and the
 * allocation-free steady-state demand path.
 */

#include <atomic>
#include <cstdlib>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness/experiment.hh"
#include "harness/machine.hh"
#include "obs/export.hh"
#include "oracle/microtrace.hh"
#include "sim/options.hh"
#include "sim/ring.hh"
#include "sim/rng.hh"
#include "trace/instr.hh"
#include "trace/registry.hh"

// ------------------------------------------------------- allocation probe
// Global operator new/delete override counting every heap allocation in
// the process. The steady-state test asserts the count stays flat across
// a measurement run; everything else ignores it. GCC flags free() on
// new-tracked pointers when the replacement is visible — the pairing is
// consistent (new -> malloc, delete -> free), so the warning is noise.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
static std::atomic<std::uint64_t> g_heapAllocs{0};

void *
operator new(std::size_t n)
{
    ++g_heapAllocs;
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    ++g_heapAllocs;
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}
void
operator delete[](void *p) noexcept
{
    std::free(p);
}
void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace berti
{

namespace
{

/** Scoped environment override (a null value unsets the variable);
 *  restores the previous value on exit. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : key(name)
    {
        const char *old = std::getenv(name);
        if (old) {
            had = true;
            previous = old;
        }
        if (value)
            setenv(name, value, 1);
        else
            unsetenv(name);
    }

    ~ScopedEnv()
    {
        if (had)
            setenv(key, previous.c_str(), 1);
        else
            unsetenv(key);
    }

  private:
    const char *key;
    bool had = false;
    std::string previous;
};

// ================================================================ RingQueue

TEST(RingQueue, FifoOrderSurvivesGrowth)
{
    RingQueue<int> q;
    for (int i = 0; i < 100; ++i)
        q.push_back(i);
    EXPECT_EQ(q.size(), 100u);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(q.front(), i);
        q.pop_front();
    }
    EXPECT_TRUE(q.empty());
}

TEST(RingQueue, WrapAroundReusesStorage)
{
    RingQueue<int> q(8);
    std::size_t cap = q.capacity();
    // Interleave pushes and pops far past the capacity; the ring must
    // wrap in place without ever growing.
    int next_in = 0, next_out = 0;
    for (int round = 0; round < 1000; ++round) {
        q.push_back(next_in++);
        q.push_back(next_in++);
        EXPECT_EQ(q.front(), next_out++);
        q.pop_front();
        EXPECT_EQ(q.front(), next_out++);
        q.pop_front();
    }
    EXPECT_EQ(q.capacity(), cap);
    EXPECT_TRUE(q.empty());
}

TEST(RingQueue, GrowthWhileWrappedRelinearises)
{
    RingQueue<int> q(4);
    // Advance head so the live span wraps the physical end.
    for (int i = 0; i < 3; ++i)
        q.push_back(i);
    q.pop_front();
    q.pop_front();
    for (int i = 3; i < 40; ++i)
        q.push_back(i);  // forces growth mid-wrap
    for (int expect = 2; expect < 40; ++expect) {
        EXPECT_EQ(q.front(), expect);
        q.pop_front();
    }
}

TEST(RingQueue, EraseKeepsRelativeOrder)
{
    RingQueue<int> q;
    for (int i = 0; i < 6; ++i)
        q.push_back(i);  // 0 1 2 3 4 5
    q.erase(2);          // 0 1 3 4 5
    q.erase(0);          // 1 3 4 5
    std::vector<int> got;
    for (int v : q)
        got.push_back(v);
    EXPECT_EQ(got, (std::vector<int>{1, 3, 4, 5}));
}

TEST(RingQueue, IndexingIsFrontRelative)
{
    RingQueue<int> q(4);
    q.push_back(10);
    q.push_back(11);
    q.pop_front();
    q.push_back(12);
    EXPECT_EQ(q[0], 11);
    EXPECT_EQ(q[1], 12);
}

TEST(RingQueue, EraseChurnAcrossTheWrapMatchesADeque)
{
    // Random pushes, pops and erases from both halves, on a ring small
    // enough that the live span keeps wrapping its physical end.
    RingQueue<int> q(16);
    std::deque<int> ref;
    Rng rng(11);
    int next = 0;
    unsigned front_half = 0;
    unsigned back_half = 0;
    for (int step = 0; step < 20000; ++step) {
        unsigned op = static_cast<unsigned>(rng.nextBounded(4));
        if (op < 2 && ref.size() < 16) {
            q.push_back(next);
            ref.push_back(next);
            ++next;
        } else if (op == 2 && !ref.empty()) {
            q.pop_front();
            ref.pop_front();
        } else if (!ref.empty()) {
            std::size_t i = rng.nextBounded(ref.size());
            ++(i < ref.size() / 2 ? front_half : back_half);
            q.erase(i);
            ref.erase(ref.begin() + static_cast<std::ptrdiff_t>(i));
        }
        ASSERT_EQ(q.size(), ref.size()) << "step " << step;
        for (std::size_t k = 0; k < ref.size(); ++k)
            ASSERT_EQ(q[k], ref[k]) << "step " << step << " index " << k;
    }
    EXPECT_EQ(q.capacity(), 16u);  // erase never grows the ring
    EXPECT_GT(front_half, 1000u);
    EXPECT_GT(back_half, 1000u);
}

// ============================================================== SimOptions

TEST(SimOptionsSkip, DefaultsOnAndHonoursEnv)
{
    // The default is what an unset variable gives, whatever the
    // caller's environment says.
    ScopedEnv unset("BERTI_CYCLE_SKIP", nullptr);
    EXPECT_TRUE(sim::SimOptions::fromEnv().cycleSkip);
    {
        ScopedEnv off("BERTI_CYCLE_SKIP", "0");
        EXPECT_FALSE(sim::SimOptions::fromEnv().cycleSkip);
    }
    {
        ScopedEnv on("BERTI_CYCLE_SKIP", "1");
        EXPECT_TRUE(sim::SimOptions::fromEnv().cycleSkip);
    }
    EXPECT_TRUE(sim::SimOptions::fromEnv().cycleSkip);
}

TEST(SimOptionsSkip, MachineConfigPicksUpTheKnob)
{
    ScopedEnv off("BERTI_CYCLE_SKIP", "0");
    EXPECT_FALSE(MachineConfig::sunnyCove(1).cycleSkip);
}

// ==================================================== cycle-skip identity

/** One simulation cell exported as canonical JSON. */
std::string
cellJson(const Workload &w, const std::string &spec_name, bool skip,
         const SimParams &params)
{
    ScopedEnv env("BERTI_CYCLE_SKIP", skip ? "1" : "0");
    SimResult r = simulate(w, makeSpec(spec_name), params);
    return obs::toJson(resultSnapshot(r));
}

TEST(CycleSkip, GoldenMatrixCellsAreBitIdentical)
{
    SimParams params;
    params.warmupInstructions = 10000;
    params.measureInstructions = 40000;
    const char *cells[] = {"mcf-like.1536", "cactu-like.709"};
    const char *specs[] = {"berti", "none"};
    for (const char *cell : cells) {
        const Workload &w = findWorkload(cell);
        for (const char *spec : specs) {
            std::string off = cellJson(w, spec, false, params);
            std::string on = cellJson(w, spec, true, params);
            EXPECT_EQ(off, on) << cell << "/" << spec
                               << " diverged under cycle-skip";
        }
    }
}

TEST(CycleSkip, AdversarialMicroTracesAreBitIdentical)
{
    SimParams params;
    params.warmupInstructions = 2000;
    params.measureInstructions = 10000;
    std::uint64_t seed = oracle::testSeed(0x5eed5139);
    for (const auto &cls : oracle::microTraceClasses()) {
        oracle::MicroTrace trace = cls.generate(seed, 4000);
        auto instrs = oracle::toInstrs(trace);
        Workload w;
        w.name = "micro:" + cls.name;
        w.suite = "micro";
        w.make = [instrs] {
            return std::make_unique<ScriptedGen>(instrs);
        };
        std::string off = cellJson(w, "berti", false, params);
        std::string on = cellJson(w, "berti", true, params);
        EXPECT_EQ(off, on) << cls.name << " diverged under cycle-skip"
                           << " (seed 0x" << std::hex << seed << ")";
    }
}

TEST(CycleSkip, MultiCoreMixIsBitIdentical)
{
    SimParams params;
    params.warmupInstructions = 5000;
    params.measureInstructions = 20000;
    std::vector<Workload> mix = {findWorkload("mcf-like.1536"),
                                 findWorkload("bwaves-like.2609")};
    PrefetcherSpec spec = makeSpec("berti");

    std::vector<std::string> off, on;
    {
        ScopedEnv env("BERTI_CYCLE_SKIP", "0");
        for (const SimResult &r : simulateMix(mix, spec, params))
            off.push_back(obs::toJson(resultSnapshot(r)));
    }
    {
        ScopedEnv env("BERTI_CYCLE_SKIP", "1");
        for (const SimResult &r : simulateMix(mix, spec, params))
            on.push_back(obs::toJson(resultSnapshot(r)));
    }
    ASSERT_EQ(off.size(), on.size());
    for (std::size_t c = 0; c < off.size(); ++c)
        EXPECT_EQ(off[c], on[c]) << "core " << c << " diverged";
}

namespace
{

/**
 * Four cores on one DRAM channel whose read queue holds four reads, so
 * the LLC keeps MSHRs waiting on room below and the room gate decides
 * when it ticks. Returns every core's live and run-target stats and the
 * clock; adds the LLC's unsent MSHRs seen between run chunks to *waits.
 */
std::string
saturatedQuad(bool skip, bool audit, unsigned *waits)
{
    MachineConfig cfg = MachineConfig::sunnyCove(4);
    cfg.dram.rqSize = 4;
    cfg.cycleSkip = skip;
    cfg.audit.enabled = audit;
    cfg.audit.interval = 256;
    cfg.l1dPrefetcher = makeSpec("berti").l1d;
    std::vector<std::unique_ptr<TraceGenerator>> gens;
    std::vector<TraceGenerator *> raw;
    for (const char *w : {"mcf-like.1536", "bwaves-like.2609",
                          "lbm-like.2676", "stream-like.1"}) {
        gens.push_back(findWorkload(w).make());
        raw.push_back(gens.back().get());
    }
    Machine m(cfg, raw);
    for (int chunk = 0; chunk < 4; ++chunk) {
        m.run(1000);
        for (const Cache::MshrView &v : m.sharedLlc().mshrSnapshot())
            *waits += !v.sentBelow;
    }
    std::string out;
    for (unsigned c = 0; c < 4; ++c) {
        out += obs::toJson(obs::snapshotOf(m.liveStats(c))) + "\n";
        out += obs::toJson(obs::snapshotOf(m.coreSnapshot(c))) + "\n";
    }
    return out + "cycle " + std::to_string(m.cycle());
}

} // namespace

TEST(CycleSkip, SaturatedFourCoreDramIsBitIdentical)
{
    unsigned waits_off = 0, waits_on = 0, waits_audited = 0;
    std::string off = saturatedQuad(false, false, &waits_off);
    std::string on = saturatedQuad(true, false, &waits_on);
    std::string audited = saturatedQuad(true, true, &waits_audited);
    EXPECT_EQ(off, on) << "diverged under cycle-skip";
    EXPECT_EQ(off, audited) << "diverged under the auditor";
    // The gate had MSHRs to hold back.
    EXPECT_GT(waits_on, 0u);
    EXPECT_EQ(waits_on, waits_off);
}

// ============================================================== MSHR arena

// A tiny MSHR arena under heavy miss pressure with the invariant
// auditor checking every 256 cycles: entries must recycle through the
// free-list without a live entry ever appearing on it, and the
// unsent-retry counter must track reality exactly (the auditor fails
// the run otherwise).
TEST(MshrArena, ReuseUnderAuditWithTinyArena)
{
    MachineConfig cfg = MachineConfig::sunnyCove(1);
    cfg.l1d.mshrs = 4;
    cfg.l2.mshrs = 4;
    cfg.audit.enabled = true;
    cfg.audit.interval = 256;
    cfg.l1dPrefetcher = makeSpec("berti").l1d;

    auto gen = findWorkload("mcf-like.1536").make();
    Machine machine(cfg, {gen.get()});
    EXPECT_NO_THROW(machine.run(30000));
    EXPECT_GT(machine.liveStats(0).l1d.demandMisses, 0u);
}

TEST(MshrArena, ReuseUnderAuditWithCycleSkipOff)
{
    ScopedEnv env("BERTI_CYCLE_SKIP", "0");
    MachineConfig cfg = MachineConfig::sunnyCove(1);
    cfg.l1d.mshrs = 4;
    cfg.audit.enabled = true;
    cfg.audit.interval = 256;

    auto gen = findWorkload("mcf-like.1536").make();
    Machine machine(cfg, {gen.get()});
    EXPECT_NO_THROW(machine.run(30000));
}

// ====================================================== allocation freedom

// The acceptance criterion of the allocation-free request path: after
// warmup has grown every arena, ring and scratch buffer to steady
// state, a full measurement run on the L1D demand path performs zero
// heap allocations.
TEST(AllocationFree, SteadyStateDemandPathDoesNotAllocate)
{
    auto gen = findWorkload("mcf-like.1536").make();
    MachineConfig cfg = MachineConfig::sunnyCove(1);
    cfg.l1dPrefetcher = makeSpec("berti").l1d;
    Machine machine(cfg, {gen.get()});

    // Warmup: arenas fill, rings reach their high-water marks, waiter
    // vectors and prefetcher scratch grow to their retained capacity.
    machine.run(60000);

    std::uint64_t before = g_heapAllocs.load();
    machine.run(40000);
    std::uint64_t after = g_heapAllocs.load();
    EXPECT_EQ(after - before, 0u)
        << (after - before) << " heap allocations on the steady-state "
        << "demand path";
}

// Same property with the cycle-skip disabled: the no-skip loop must be
// equally allocation-free (the skip only removes iterations).
TEST(AllocationFree, SteadyStateWithoutCycleSkip)
{
    ScopedEnv env("BERTI_CYCLE_SKIP", "0");
    auto gen = findWorkload("bwaves-like.2609").make();
    MachineConfig cfg = MachineConfig::sunnyCove(1);
    cfg.l1dPrefetcher = makeSpec("berti").l1d;
    Machine machine(cfg, {gen.get()});

    machine.run(60000);

    std::uint64_t before = g_heapAllocs.load();
    machine.run(40000);
    std::uint64_t after = g_heapAllocs.load();
    EXPECT_EQ(after - before, 0u)
        << (after - before) << " heap allocations on the steady-state "
        << "demand path (cycle-skip off)";
}

} // namespace
} // namespace berti
