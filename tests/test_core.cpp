/** @file Core pipeline tests, driven through the Machine harness with
 *  scripted traces, plus load completion on a hand-wired core. */

#include <gtest/gtest.h>

#include "harness/machine.hh"
#include "sim/rng.hh"
#include "sim/serialize.hh"
#include "test_util.hh"

namespace berti
{

namespace
{

TraceInstr
alu(Addr ip)
{
    TraceInstr in;
    in.ip = ip;
    return in;
}

TraceInstr
loadAt(Addr ip, Addr addr, bool dep = false)
{
    TraceInstr in;
    in.ip = ip;
    in.load0 = addr;
    in.dependsOnPrevLoad = dep;
    return in;
}

TraceInstr
branch(Addr ip, bool taken)
{
    TraceInstr in;
    in.ip = ip;
    in.isBranch = true;
    in.taken = taken;
    return in;
}

RunStats
runScript(std::vector<TraceInstr> script, std::uint64_t instructions)
{
    ScriptedGen gen(std::move(script));
    MachineConfig cfg = MachineConfig::sunnyCove(1);
    Machine m(cfg, {&gen});
    m.run(instructions);
    return m.liveStats(0);
}

} // namespace

TEST(Core, RetiresRequestedInstructionCount)
{
    RunStats s = runScript({alu(0x400000)}, 10000);
    EXPECT_GE(s.core.instructions, 10000u);
}

TEST(Core, AluOnlyIpcBoundedByRetireWidth)
{
    RunStats s = runScript({alu(0x400000), alu(0x400004), alu(0x400008),
                            alu(0x40000c)},
                           50000);
    double ipc = s.core.ipc();
    EXPECT_GT(ipc, 3.0);  // approaches the 4-wide retire limit
    EXPECT_LE(ipc, 4.05);
}

TEST(Core, CacheResidentLoadsAreFast)
{
    // Loads that hit one hot line after warm-up.
    RunStats s = runScript({loadAt(0x400000, 0x10000000), alu(0x400004),
                            alu(0x400008)},
                           50000);
    EXPECT_GT(s.core.ipc(), 2.0);
    EXPECT_LE(s.l1d.mpki(s.core.instructions), 1.0);
}

TEST(Core, DependentChaseIsLatencyBound)
{
    // Two scripts over the same two lines: independent vs dependent.
    std::vector<TraceInstr> indep, dep;
    for (int i = 0; i < 8; ++i) {
        indep.push_back(loadAt(0x400000, 0x20000000ull + (i % 2) * 64));
        dep.push_back(
            loadAt(0x400000, 0x20000000ull + (i % 2) * 64, true));
    }
    RunStats si = runScript(indep, 20000);
    RunStats sd = runScript(dep, 20000);
    // Serialized address dependences cannot beat the parallel version.
    EXPECT_LE(sd.core.ipc(), si.core.ipc() + 0.01);
}

TEST(Core, MispredictsSlowTheFrontEnd)
{
    Rng rng(3);
    std::vector<TraceInstr> random_branches, biased_branches;
    for (int i = 0; i < 64; ++i) {
        random_branches.push_back(alu(0x400000 + 8 * i));
        random_branches.push_back(
            branch(0x400004 + 8 * i, rng.nextBool(0.5)));
        biased_branches.push_back(alu(0x400000 + 8 * i));
        biased_branches.push_back(branch(0x400004 + 8 * i, true));
    }
    RunStats sr = runScript(random_branches, 30000);
    RunStats sb = runScript(biased_branches, 30000);
    EXPECT_GT(sr.core.mispredicts, sb.core.mispredicts * 5);
    EXPECT_LT(sr.core.ipc(), sb.core.ipc());
}

TEST(Core, BranchStatsCounted)
{
    RunStats s = runScript({branch(0x400000, true), alu(0x400004)}, 10000);
    EXPECT_NEAR(static_cast<double>(s.core.branches) /
                    s.core.instructions,
                0.5, 0.05);
}

TEST(Core, LoadStoreCountsMatchScript)
{
    TraceInstr st;
    st.ip = 0x400008;
    st.store = 0x30000000;
    RunStats s =
        runScript({loadAt(0x400000, 0x20000000), st, alu(0x400010)},
                  30000);
    EXPECT_NEAR(static_cast<double>(s.core.loads) / s.core.instructions,
                1.0 / 3.0, 0.05);
    EXPECT_NEAR(static_cast<double>(s.core.stores) / s.core.instructions,
                1.0 / 3.0, 0.05);
}

TEST(Core, HugeCodeFootprintMissesInL1i)
{
    std::vector<TraceInstr> script;
    for (int i = 0; i < 4096; ++i)
        script.push_back(alu(0x400000 + 64 * i));  // new line each instr
    RunStats s = runScript(script, 30000);
    EXPECT_GT(s.l1i.demandMisses, 100u);
}

TEST(Core, StoresReachTheCacheAsRfo)
{
    TraceInstr st;
    st.ip = 0x400000;
    st.store = 0x40000000;
    RunStats s = runScript({st, alu(0x400004)}, 20000);
    EXPECT_GT(s.l1d.demandAccesses, 1000u);
}

TEST(Machine, MultiCoreRunsAllCores)
{
    ScriptedGen g0({alu(0x400000)});
    ScriptedGen g1({loadAt(0x400000, 0x20000000)});
    MachineConfig cfg = MachineConfig::sunnyCove(2);
    Machine m(cfg, {&g0, &g1});
    m.run(5000);
    EXPECT_GE(m.coreSnapshot(0).core.instructions, 5000u);
    EXPECT_GE(m.coreSnapshot(1).core.instructions, 5000u);
}

TEST(Machine, SnapshotTakenAtPerCoreTarget)
{
    // A fast ALU core and a slow memory-bound core: the fast core's
    // snapshot must be taken early (fewer cycles than the full run).
    ScriptedGen fast({alu(0x400000)});
    std::vector<TraceInstr> chase;
    for (int i = 0; i < 64; ++i)
        chase.push_back(loadAt(0x400000, 0x20000000ull + 64 * i, true));
    ScriptedGen slow(chase);
    MachineConfig cfg = MachineConfig::sunnyCove(2);
    Machine m(cfg, {&fast, &slow});
    m.run(20000);
    EXPECT_LT(m.coreSnapshot(0).core.cycles,
              m.coreSnapshot(1).core.cycles);
}

TEST(Machine, SunnyCoveMatchesTableTwo)
{
    MachineConfig cfg = MachineConfig::sunnyCove(1);
    EXPECT_EQ(cfg.core.robSize, 352u);
    EXPECT_EQ(cfg.core.dispatchWidth, 6u);
    EXPECT_EQ(cfg.core.retireWidth, 4u);
    EXPECT_EQ(cfg.l1d.sets * cfg.l1d.ways * kLineSize, 48u * 1024);
    EXPECT_EQ(cfg.l1d.latency, 5u);
    EXPECT_EQ(cfg.l1d.mshrs, 16u);
    EXPECT_EQ(cfg.l2.sets * cfg.l2.ways * kLineSize, 512u * 1024);
    EXPECT_EQ(cfg.l2.repl, ReplKind::Srrip);
    EXPECT_EQ(cfg.llc.sets * cfg.llc.ways * kLineSize, 2048u * 1024);
    EXPECT_EQ(cfg.llc.repl, ReplKind::Drrip);
    EXPECT_EQ(cfg.dram.mtps, 6400u);
}

// ------------------------------------------------ load completion

namespace
{

/**
 * One core wired by hand to an L1I and an L1D. The L1D's memory holds
 * every load miss until the test delivers it, so the order in which
 * loads complete is the test's choice.
 */
struct HandCore
{
    explicit HandCore(std::vector<TraceInstr> script)
        : gen(std::move(script)), tu(TranslationUnit::Config{}),
          l1i(cacheConfig("l1i"), &clock), l1d(cacheConfig("l1d"), &clock),
          core(coreConfig(), &clock, 0, &gen, &l1i, &l1d, &tu)
    {
        l1i.setLower(&iMem);
        l1d.setLower(&dMem);
        clients.add(static_cast<ReadClient *>(&core));
    }

    /** A power-of-two ROB fills its ring exactly, so an offset one past
     *  the last entry would wrap onto the head. */
    static CoreConfig
    coreConfig()
    {
        CoreConfig cfg;
        cfg.robSize = 64;
        return cfg;
    }

    static CacheConfig
    cacheConfig(const char *name)
    {
        CacheConfig cfg;
        cfg.name = name;
        return cfg;
    }

    void
    step(unsigned n)
    {
        for (unsigned i = 0; i < n; ++i) {
            ++clock;
            iMem.tick();
            l1i.tick();
            l1d.tick();
            core.tick();
        }
    }

    /**
     * Run until the ROB is full behind the first instruction and every
     * load dispatched so far waits in the L1D on one of its misses.
     * (Instruction 1's own loads are the last to get there: they pay
     * the page walks that later loads then hit in the TLB.)
     */
    void
    fillRobBehindMisses()
    {
        for (unsigned i = 0; i < 5000; ++i) {
            if (core.robOccupancy() == coreConfig().robSize &&
                core.pendingAccessCount() == 0 && l1d.rqOccupancy() == 0)
                return;
            step(1);
        }
        FAIL() << "the ROB never filled behind the load misses";
    }

    /** Fill the L1D miss for virtual line v_line from below. */
    void
    deliver(Addr v_line)
    {
        for (auto it = dMem.pending.begin(); it != dMem.pending.end();
             ++it) {
            if (it->second.vLine == v_line) {
                MemRequest req = it->second;
                dMem.pending.erase(it);
                l1d.readDone(req);
                return;
            }
        }
        FAIL() << "no miss in flight for line " << v_line;
    }

    std::string
    coreBytes() const
    {
        sim::ByteWriter w;
        core.saveState(w, clients);
        return w.take();
    }

    Cycle clock = 0;
    ScriptedGen gen;
    TranslationUnit tu;
    test::TestMemory iMem{&clock, 5};
    test::TestMemory dMem{&clock, kNever / 2};  // never answers by itself
    Cache l1i;
    Cache l1d;
    Core core;
    sim::PtrMap clients;
};

constexpr Addr kLineA = 0x20000000;
constexpr Addr kLineB = 0x30000000;  // another page than A

/** A two-load instruction (id 1, to lines A and B) and three ALU ops,
 *  repeated. */
std::vector<TraceInstr>
twoLoadScript()
{
    TraceInstr two = loadAt(0x400000, kLineA);
    two.load1 = kLineB;
    return {two, alu(0x400004), alu(0x400008), alu(0x40000c)};
}

} // namespace

TEST(CoreLoadCompletion, TwoLoadInstructionRetiresOnlyAfterBothComplete)
{
    HandCore h(twoLoadScript());
    h.fillRobBehindMisses();
    ASSERT_EQ(h.dMem.pending.size(), 2u);
    ASSERT_EQ(h.core.robHeadId(), 1u);
    ASSERT_FALSE(h.core.robHeadDone());

    // The second load completes first: the instruction still waits.
    h.deliver(lineAddr(kLineB));
    h.step(20);
    EXPECT_EQ(h.core.robHeadId(), 1u);
    EXPECT_FALSE(h.core.robHeadDone());
    EXPECT_EQ(h.core.stats.instructions, 0u);

    // Then the first: it completes and retires, with the ALU ops behind
    // it and the later two-load instructions that merged on both lines.
    h.deliver(lineAddr(kLineA));
    EXPECT_TRUE(h.core.robHeadDone());
    h.step(20);
    EXPECT_GT(h.core.stats.instructions, 4u);
    EXPECT_NE(h.core.robHeadId(), 1u);
}

TEST(CoreLoadCompletion, CompletionOutsideTheRobChangesNothing)
{
    HandCore h(twoLoadScript());
    auto expectIgnored = [&h](std::uint64_t id) {
        std::string before = h.coreBytes();
        MemRequest done;
        done.type = AccessType::Load;
        done.pLine = lineAddr(kLineA);
        done.vLine = lineAddr(kLineA);
        done.instrId = id;
        h.core.readDone(done);
        EXPECT_EQ(h.coreBytes(), before) << "instruction id " << id;
    };

    // A full ROB whose head waits on both misses: ids past its end are
    // not dispatched yet.
    h.fillRobBehindMisses();
    ASSERT_FALSE(h.core.robHeadDone());
    std::uint64_t next = h.core.robHeadId() + h.core.robOccupancy();
    expectIgnored(next);
    expectIgnored(next + 1000);

    // After retirement, ids before the head are gone.
    h.deliver(lineAddr(kLineA));
    h.deliver(lineAddr(kLineB));
    h.step(100);
    ASSERT_GT(h.core.stats.instructions, 0u);
    ASSERT_GT(h.core.robOccupancy(), 0u);
    std::uint64_t head = h.core.robHeadId();
    expectIgnored(1);
    expectIgnored(head - 1);
    expectIgnored(head + h.core.robOccupancy());
}

} // namespace berti
