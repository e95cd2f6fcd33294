/** @file Hardening-layer tests: SimError/Result semantics, env-driven
 *  audit configuration, always-on config validation, the invariant
 *  auditor (healthy runs pass; a leaked MSHR, a broken MSHR line index,
 *  a gap in ROB ids, a done entry with loads in flight, a core asleep
 *  past a done head and a stale DRAM row key are caught), the
 *  forward-progress watchdog, fault-injector determinism, and Berti's counter self-consistency
 *  under injected latency variance. */

#include <cstdlib>
#include <cstring>
#include <memory>

#include <gtest/gtest.h>

#include "harness/experiment.hh"
#include "harness/machine.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "trace/generators.hh"
#include "verify/auditor.hh"
#include "verify/fault_injector.hh"
#include "verify/sim_error.hh"
#include "verify/watchdog.hh"
#include "test_util.hh"

namespace berti
{

using test::TestMemory;
using verify::AuditConfig;
using verify::ErrorKind;
using verify::FaultConfig;
using verify::FaultInjector;
using verify::ProgressWatchdog;
using verify::Result;
using verify::SimAuditor;
using verify::SimError;
using verify::WatchdogConfig;

// --------------------------------------------------------------- errors

TEST(SimErrorTest, CarriesStructuredFields)
{
    SimError e(ErrorKind::TraceIo, "loadTrace", "truncated record",
               "/tmp/x.trace", 49, "dump");
    EXPECT_EQ(e.kind(), ErrorKind::TraceIo);
    EXPECT_EQ(e.component(), "loadTrace");
    EXPECT_EQ(e.reason(), "truncated record");
    EXPECT_EQ(e.path(), "/tmp/x.trace");
    EXPECT_EQ(e.offset(), 49u);
    EXPECT_EQ(e.diagnostic(), "dump");

    // what() is self-describing: kind, component, reason, location.
    std::string what = e.what();
    EXPECT_NE(what.find("trace-io"), std::string::npos);
    EXPECT_NE(what.find("loadTrace"), std::string::npos);
    EXPECT_NE(what.find("truncated record"), std::string::npos);
    EXPECT_NE(what.find("/tmp/x.trace"), std::string::npos);
    EXPECT_NE(what.find("49"), std::string::npos);
}

TEST(SimErrorTest, KindNamesAreStable)
{
    EXPECT_STREQ(verify::errorKindName(ErrorKind::Config), "config");
    EXPECT_STREQ(verify::errorKindName(ErrorKind::TraceIo), "trace-io");
    EXPECT_STREQ(verify::errorKindName(ErrorKind::Invariant),
                 "invariant");
    EXPECT_STREQ(verify::errorKindName(ErrorKind::Watchdog), "watchdog");
    EXPECT_STREQ(verify::errorKindName(ErrorKind::Fault), "fault");
}

TEST(ResultTest, ValueAndErrorPaths)
{
    Result<int> good(7);
    EXPECT_TRUE(good.ok());
    EXPECT_TRUE(static_cast<bool>(good));
    EXPECT_EQ(good.value(), 7);
    EXPECT_EQ(good.valueOr(0), 7);

    Result<int> bad(SimError(ErrorKind::Config, "test", "nope"));
    EXPECT_FALSE(bad.ok());
    EXPECT_EQ(bad.error().kind(), ErrorKind::Config);
    EXPECT_EQ(bad.valueOr(42), 42);

    // value() on an error re-throws the *typed* stored error.
    try {
        (void)bad.value();
        FAIL() << "value() on an error Result must throw";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), ErrorKind::Config);
        EXPECT_EQ(e.reason(), "nope");
    }
}

// ------------------------------------------------- env-driven enabling

class AuditEnvTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        saveVerify = getSaved("BERTI_VERIFY", hadVerify);
        saveInterval = getSaved("BERTI_VERIFY_INTERVAL", hadInterval);
    }

    void
    TearDown() override
    {
        restore("BERTI_VERIFY", hadVerify, saveVerify);
        restore("BERTI_VERIFY_INTERVAL", hadInterval, saveInterval);
    }

  private:
    static std::string
    getSaved(const char *name, bool &had)
    {
        const char *v = std::getenv(name);
        had = v != nullptr;
        return had ? v : "";
    }

    static void
    restore(const char *name, bool had, const std::string &value)
    {
        if (had)
            setenv(name, value.c_str(), 1);
        else
            unsetenv(name);
    }

    std::string saveVerify, saveInterval;
    bool hadVerify = false, hadInterval = false;
};

TEST_F(AuditEnvTest, FromEnvHonoursVerifyFlag)
{
    unsetenv("BERTI_VERIFY");
    unsetenv("BERTI_VERIFY_INTERVAL");
    EXPECT_FALSE(AuditConfig::fromEnv().enabled);

    setenv("BERTI_VERIFY", "0", 1);
    EXPECT_FALSE(AuditConfig::fromEnv().enabled);

    setenv("BERTI_VERIFY", "1", 1);
    EXPECT_TRUE(AuditConfig::fromEnv().enabled);

    setenv("BERTI_VERIFY_INTERVAL", "123", 1);
    AuditConfig cfg = AuditConfig::fromEnv();
    EXPECT_TRUE(cfg.enabled);
    EXPECT_EQ(cfg.interval, 123u);
}

// ------------------------------------------- always-on config checking

TEST(ConfigValidationTest, CacheRejectsDegenerateGeometry)
{
    Cycle clock = 0;
    CacheConfig cfg;
    cfg.ways = 0;
    try {
        Cache cache(cfg, &clock);
        FAIL() << "zero-way cache must be rejected";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), ErrorKind::Config);
    }

    cfg = CacheConfig{};
    cfg.mshrs = 0;
    EXPECT_THROW(Cache(cfg, &clock), SimError);
    cfg = CacheConfig{};
    cfg.sets = 0;
    EXPECT_THROW(Cache(cfg, &clock), SimError);
}

TEST(ConfigValidationTest, MachineRejectsGeneratorMismatch)
{
    StreamGen::Params p;
    StreamGen gen(p);
    MachineConfig cfg = MachineConfig::sunnyCove(2);
    try {
        Machine m(cfg, {&gen});  // 2 cores, 1 generator
        FAIL() << "generator/core mismatch must be rejected";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), ErrorKind::Config);
        EXPECT_NE(e.reason().find("generator"), std::string::npos);
    }

    EXPECT_THROW(Machine(cfg, {&gen, nullptr}), SimError);
}

TEST(ConfigValidationTest, L1dPrefetchWithoutTlbIsTypedNotAssert)
{
    // The old code had `assert(translation && ...)` here — invisible in
    // release builds, UB beyond it. Now it is an always-on typed error.
    Cycle clock = 0;
    CacheConfig cfg;
    cfg.isL1d = true;
    Cache cache(cfg, &clock);
    TestMemory mem(&clock, 40);
    cache.setLower(&mem);
    try {
        cache.issuePrefetch(0x1000, FillLevel::L1);
        FAIL() << "L1D prefetch without a TLB must be a typed error";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), ErrorKind::Config);
        EXPECT_NE(e.reason().find("TLB"), std::string::npos);
    }
}

// ------------------------------------------------------------- auditor

TEST(AuditorTest, HealthyMachinePassesAllChecks)
{
    StreamGen::Params p;
    StreamGen gen(p);
    MachineConfig cfg = MachineConfig::sunnyCove(1);
    cfg.l1dPrefetcher = makeSpec("berti").l1d;
    cfg.audit.enabled = true;
    cfg.audit.interval = 512;
    Machine m(cfg, {&gen});
    m.run(20000);
    ASSERT_NE(m.auditor(), nullptr);
    EXPECT_GT(m.auditor()->checksRun(), 10u);
    m.auditor()->checkNow();  // quiescent state must also pass
}

TEST(AuditorTest, DisabledByDefaultWithoutEnv)
{
    StreamGen::Params p;
    StreamGen gen(p);
    MachineConfig cfg = MachineConfig::sunnyCove(1);
    cfg.audit.enabled = false;
    Machine m(cfg, {&gen});
    EXPECT_EQ(m.auditor(), nullptr);
}

TEST(AuditorTest, LeakedMshrIsAnInvariantViolation)
{
    // A demand miss whose response never arrives: the MSHR entry ages
    // past the leak threshold and the auditor must flag it — this is
    // exactly the bookkeeping Berti's latency measurement depends on.
    Cycle clock = 0;
    CacheConfig cfg;
    cfg.name = "l1d-under-test";
    Cache cache(cfg, &clock);
    TestMemory mem(&clock, 40);
    cache.setLower(&mem);

    struct : ReadClient
    {
        void readDone(const MemRequest &) override {}
    } client;

    MemRequest req;
    req.pLine = 0x40;
    req.vLine = 0x40;
    req.ip = 0x400000;
    req.type = AccessType::Load;
    req.client = &client;
    ASSERT_TRUE(cache.submitRead(req));
    for (int i = 0; i < 8; ++i) {
        ++clock;
        cache.tick();  // never ticking mem: the response is swallowed
    }
    ASSERT_EQ(cache.mshrsInUse(), 1u);

    AuditConfig acfg;
    acfg.enabled = true;
    acfg.mshrLeakCycles = 1000;
    SimAuditor auditor(acfg, &clock);
    auditor.attach(&cache);

    auditor.checkNow();  // young entry: fine
    clock += 2000;       // now far beyond the leak threshold
    try {
        auditor.checkNow();
        FAIL() << "a leaked MSHR must fail the audit";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), ErrorKind::Invariant);
        EXPECT_EQ(e.component(), "l1d-under-test");
        EXPECT_NE(e.reason().find("MSHR"), std::string::npos);
    }
}

// Corruptions of the structures behind the O(1) lookups, made through
// the auditor's own friend access to them.
struct verify::SimAuditor::TestAccess
{
    static void
    dropFromMshrIndex(Cache &cache, Addr p_line)
    {
        cache.mshrIndex.erase(p_line);
    }

    static void
    addStaleMshrIndexEntry(Cache &cache, Addr p_line)
    {
        cache.mshrIndex.assign(p_line, 0);
    }

    /** Overwrite the tag of way `way` of set `set`. */
    static void
    setTag(Cache &cache, unsigned set, unsigned way, Addr p_line)
    {
        cache.tags[static_cast<std::size_t>(set) * cache.cfg.ways + way] =
            p_line;
    }

    static Addr
    tagAt(const Cache &cache, unsigned set, unsigned way)
    {
        return cache.tags[static_cast<std::size_t>(set) * cache.cfg.ways +
                          way];
    }

    static void
    bumpPqKey(Cache &cache, std::size_t pos)
    {
        cache.pqKeys[pos] += 1;
    }

    static void
    dropLastPqKey(Cache &cache)
    {
        // The ring has no pop_back: rebuild it without its last key.
        RingQueue<Addr> keys;
        for (std::size_t i = 0; i + 1 < cache.pqKeys.size(); ++i)
            keys.push_back(cache.pqKeys[i]);
        cache.pqKeys = keys;
    }

    static void
    skipRobId(Core &core, std::size_t pos)
    {
        core.rob[pos].id += 1;
    }

    static void
    markDoneWithPendingLoad(Core &core, std::size_t pos)
    {
        core.rob[pos].done = true;
        core.rob[pos].pendingLoads = 1;
    }

    static void
    sleepUntil(Core &core, Cycle wake)
    {
        core.wakeAt = wake;
    }

    static void
    sleepUntil(Cache &cache, Cycle wake)
    {
        cache.wakeAt = wake;
    }

    static void
    flipUnsentBit(Cache &cache, unsigned slot)
    {
        cache.unsentMask[slot / 64] ^= std::uint64_t{1} << (slot % 64);
    }

    static void
    staleDramKey(Dram &dram, std::size_t pos)
    {
        dram.rqKeys[pos].row += 1;
    }
};

namespace
{

/** A cache with two misses in flight, and an auditor watching it. */
struct InFlightCache
{
    InFlightCache()
    {
        cache.setLower(&mem);
        for (Addr line : {Addr{0x40}, Addr{0x41}}) {
            MemRequest req;
            req.pLine = line;
            req.vLine = line;
            req.type = AccessType::Load;
            req.client = &client;
            cache.submitRead(req);
        }
        for (int i = 0; i < 8; ++i) {
            ++clock;
            cache.tick();  // memory is never ticked: both stay in flight
        }
        AuditConfig acfg;
        acfg.enabled = true;
        auditor = std::make_unique<SimAuditor>(acfg, &clock);
        auditor->attach(&cache);
    }

    Cycle clock = 0;
    Cache cache{[] {
        CacheConfig cfg;
        cfg.name = "index-under-test";
        return cfg;
    }(), &clock};
    TestMemory mem{&clock, 40};
    struct : ReadClient
    {
        void readDone(const MemRequest &) override {}
    } client;
    std::unique_ptr<SimAuditor> auditor;
};

void
expectInvariant(const SimAuditor &auditor, const std::string &component,
                const std::string &needle)
{
    try {
        auditor.checkNow();
        FAIL() << "the corruption must fail the audit";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), ErrorKind::Invariant);
        EXPECT_EQ(e.component(), component);
        EXPECT_NE(e.reason().find(needle), std::string::npos)
            << e.reason();
    }
}

} // namespace

TEST(AuditorTest, MshrMissingFromTheLineIndexIsAViolation)
{
    InFlightCache f;
    ASSERT_EQ(f.cache.mshrsInUse(), 2u);
    f.auditor->checkNow();
    SimAuditor::TestAccess::dropFromMshrIndex(f.cache, 0x41);
    expectInvariant(*f.auditor, "index-under-test",
                    "not found at its slot");
}

TEST(AuditorTest, StaleLineIndexEntryIsAViolation)
{
    InFlightCache f;
    f.auditor->checkNow();
    SimAuditor::TestAccess::addStaleMshrIndexEntry(f.cache, 0x99);
    expectInvariant(*f.auditor, "index-under-test", "MSHR line index");
}

TEST(AuditorTest, SentMshrInTheUnsentMaskIsAViolation)
{
    // Both misses went below; a mask bit for one of them would make
    // the retry send it a second time.
    InFlightCache f;
    ASSERT_EQ(f.cache.mshrSnapshot().size(), 2u);
    ASSERT_TRUE(f.cache.mshrSnapshot()[0].sentBelow);
    f.auditor->checkNow();
    SimAuditor::TestAccess::flipUnsentBit(f.cache, 0);
    expectInvariant(*f.auditor, "index-under-test",
                    "unsent slot mask holds MSHR entry 0");
}

namespace
{

/** A 4-set cache with lines 0x40..0x43 resident (one per set) and two
 *  prefetches queued, and an auditor watching it. */
struct FilledCache
{
    FilledCache()
    {
        cache.setLower(&mem);
        for (Addr line = 0x40; line < 0x44; ++line) {
            MemRequest req;
            req.pLine = line;
            req.vLine = line;
            req.type = AccessType::Load;
            cache.submitRead(req);
        }
        for (int i = 0; i < 200; ++i) {
            ++clock;
            mem.tick();
            cache.tick();
        }
        mem.refuseReads = true;  // keep the prefetches queued
        cache.issuePrefetch(0x80, FillLevel::L1);
        cache.issuePrefetch(0x81, FillLevel::L1);
        AuditConfig acfg;
        acfg.enabled = true;
        auditor = std::make_unique<SimAuditor>(acfg, &clock);
        auditor->attach(&cache);
    }

    Cycle clock = 0;
    Cache cache{[] {
        CacheConfig cfg;
        cfg.name = "tags-under-test";
        cfg.sets = 4;
        cfg.ways = 2;
        return cfg;
    }(), &clock};
    TestMemory mem{&clock, 40};
    std::unique_ptr<SimAuditor> auditor;
};

} // namespace

TEST(AuditorTest, TagOutsideItsHomeSetIsAViolation)
{
    FilledCache f;
    ASSERT_TRUE(f.cache.probe(0x41));
    f.auditor->checkNow();
    // 0x45 belongs in set 1; put it in set 0's free way.
    ASSERT_EQ(SimAuditor::TestAccess::tagAt(f.cache, 0, 1), kNoAddr);
    SimAuditor::TestAccess::setTag(f.cache, 0, 1, 0x45);
    expectInvariant(*f.auditor, "tags-under-test", "foreign set");
}

TEST(AuditorTest, DuplicateTagInASetIsAViolation)
{
    FilledCache f;
    f.auditor->checkNow();
    Addr resident = SimAuditor::TestAccess::tagAt(f.cache, 2, 0);
    ASSERT_EQ(resident, Addr{0x42});
    SimAuditor::TestAccess::setTag(f.cache, 2, 1, resident);
    expectInvariant(*f.auditor, "tags-under-test", "duplicate tag");
}

TEST(AuditorTest, PqKeyThatIsNotItsEntrysLineIsAViolation)
{
    FilledCache f;
    ASSERT_EQ(f.cache.pqOccupancy(), 2u);
    f.auditor->checkNow();
    SimAuditor::TestAccess::bumpPqKey(f.cache, 1);
    expectInvariant(*f.auditor, "tags-under-test", "is not its entry's line");
}

TEST(AuditorTest, CacheSleepingPastItsNextEventIsAViolation)
{
    // The queued prefetches are due at a known cycle; the cycle skip
    // would jump past them if the cache slept longer.
    FilledCache f;
    Cycle due = f.cache.nextEventCycle();
    ASSERT_LT(due, kNever);
    f.auditor->checkNow();
    SimAuditor::TestAccess::sleepUntil(f.cache, due + 1);
    expectInvariant(*f.auditor, "tags-under-test", "cache sleeps until");
}

TEST(AuditorTest, PqKeyRingOutOfStepWithThePqIsAViolation)
{
    FilledCache f;
    ASSERT_EQ(f.cache.pqOccupancy(), 2u);
    f.auditor->checkNow();
    SimAuditor::TestAccess::dropLastPqKey(f.cache);
    expectInvariant(*f.auditor, "tags-under-test", "PQ key ring holds 1");
}

namespace
{

/** Loads to a new page each: misses stay in flight, so the ROB holds a
 *  run of waiting entries. */
std::vector<TraceInstr>
pageChase()
{
    std::vector<TraceInstr> chase;
    for (int i = 0; i < 64; ++i) {
        TraceInstr in;
        in.ip = 0x400000 + 4 * i;
        in.load0 = 0x20000000ull + 4096 * i;
        chase.push_back(in);
    }
    return chase;
}

/** An audited one-core machine after a short run of `script`. */
struct AuditedCore
{
    explicit AuditedCore(std::vector<TraceInstr> script)
        : gen(std::move(script)),
          m([] {
              MachineConfig cfg = MachineConfig::sunnyCove(1);
              cfg.audit.enabled = true;
              return cfg;
          }(), {&gen})
    {
        m.run(200);
        m.auditor()->checkNow();
    }

    ScriptedGen gen;
    Machine m;
};

} // namespace

TEST(AuditorTest, RobIdGapIsAViolation)
{
    // A gap in the ROB's ids would send Core::readDone's offset lookup
    // to the wrong entry.
    AuditedCore f(pageChase());
    Core &core = f.m.core(0);
    ASSERT_GT(core.robOccupancy(), 3u);

    SimAuditor::TestAccess::skipRobId(core, 2);
    expectInvariant(*f.m.auditor(), "core0", "ROB ids not consecutive");
}

TEST(AuditorTest, DoneEntryWithPendingLoadsIsAViolation)
{
    // Dependent dispatch reads "load outstanding" as "entry not done",
    // so a done entry must have no load left in flight.
    AuditedCore f(pageChase());
    Core &core = f.m.core(0);
    ASSERT_GT(core.robOccupancy(), 3u);

    SimAuditor::TestAccess::markDoneWithPendingLoad(core, 2);
    expectInvariant(*f.m.auditor(), "core0", "done with 1 pending loads");
}

TEST(AuditorTest, CoreSleepingPastADoneHeadIsAViolation)
{
    // ALU ops dispatch done, and dispatch outpaces retirement, so the
    // head is done and retires on the core's next tick.
    TraceInstr alu;
    alu.ip = 0x400000;
    AuditedCore f({alu});
    Core &core = f.m.core(0);
    ASSERT_TRUE(core.robHeadDone());
    ASSERT_LE(core.wakeCycle(), f.m.cycle() + 1);

    SimAuditor::TestAccess::sleepUntil(core, f.m.cycle() + 5);
    expectInvariant(*f.m.auditor(), "core0", "ROB head done");
}

TEST(AuditorTest, CoreSleepingPastItsNextEventIsAViolation)
{
    // 200 ALU ops retire while the load after them is still below:
    // the head waits on it, but the front end has work of its own.
    std::vector<TraceInstr> script(600);
    for (std::size_t i = 0; i < script.size(); ++i)
        script[i].ip = 0x400000 + 4 * i;
    script[200].load0 = 0x30000000;
    AuditedCore f(script);
    Core &core = f.m.core(0);
    ASSERT_FALSE(core.robHeadDone());
    Cycle due = core.nextEventCycle();
    ASSERT_LT(due, kNever);

    SimAuditor::TestAccess::sleepUntil(core, due + 1);
    expectInvariant(*f.m.auditor(), "core0", "core sleeps until");
}

TEST(AuditorTest, StaleDramRowKeyIsAViolation)
{
    Cycle clock = 0;
    Dram dram(DramConfig{}, &clock);
    for (Addr line : {Addr{0}, Addr{1000}, Addr{70000}})
        ASSERT_TRUE(dram.submitRead([line] {
            MemRequest r;
            r.pLine = line;
            r.type = AccessType::Load;
            return r;
        }()));
    AuditConfig acfg;
    acfg.enabled = true;
    SimAuditor auditor(acfg, &clock);
    auditor.attach(static_cast<const mem::MemBackend *>(&dram));
    auditor.checkNow();

    SimAuditor::TestAccess::staleDramKey(dram, 1);
    expectInvariant(auditor, "dram", "stale row/bank key");
}

// ------------------------------------------------------------ watchdog

TEST(WatchdogTest, RetirementAndHeadChangesCountAsProgress)
{
    Cycle clock = 0;
    WatchdogConfig cfg;
    cfg.stallCycles = 100;
    ProgressWatchdog wd(cfg, &clock);
    wd.reset(1);

    // Steady retirement: never stalled.
    for (std::uint64_t i = 0; i < 500; ++i) {
        ++clock;
        wd.observe(0, i, 1000 + i);
    }
    EXPECT_EQ(wd.stalledCore(), -1);

    // Frozen retired count + frozen ROB head: stalls after threshold.
    for (int i = 0; i < 99; ++i) {
        ++clock;
        wd.observe(0, 500, 77);
    }
    EXPECT_EQ(wd.stalledCore(), -1);  // at the threshold, not beyond
    for (int i = 0; i < 5; ++i) {
        ++clock;
        wd.observe(0, 500, 77);
    }
    EXPECT_EQ(wd.stalledCore(), 0);
    EXPECT_GT(wd.stalledFor(0), cfg.stallCycles);

    // A head-id change alone (no retirement — e.g. a flush) is progress.
    wd.observe(0, 500, 78);
    EXPECT_EQ(wd.stalledCore(), -1);
}

TEST(WatchdogTest, DisabledWatchdogNeverFires)
{
    Cycle clock = 0;
    WatchdogConfig cfg;
    cfg.enabled = false;
    cfg.stallCycles = 10;
    ProgressWatchdog wd(cfg, &clock);
    wd.reset(1);
    for (int i = 0; i < 1000; ++i) {
        ++clock;
        wd.observe(0, 0, 0);
    }
    EXPECT_EQ(wd.stalledCore(), -1);
}

// ------------------------------------------------------ fault injector

TEST(FaultInjectorTest, QuietWhenAllRatesAreZero)
{
    FaultInjector inj;  // default config: every rate 0
    unsigned char rec[33] = {};
    unsigned char before[33] = {};
    for (int i = 0; i < 200; ++i) {
        EXPECT_EQ(inj.mutateTraceRecord(rec, sizeof(rec)),
                  verify::TraceFault::None);
        EXPECT_FALSE(inj.loseDramRead());
        EXPECT_FALSE(inj.dropPrefetchFill());
    }
    MemRequest req;
    req.type = AccessType::Load;
    EXPECT_EQ(inj.extraDramLatency(req), 0u);
    EXPECT_EQ(std::memcmp(rec, before, sizeof(rec)), 0);
    EXPECT_EQ(inj.stats().traceBitFlips, 0u);
    EXPECT_EQ(inj.stats().dramSpikes, 0u);
}

TEST(FaultInjectorTest, DeterministicFromSeed)
{
    FaultConfig fc;
    fc.seed = 31337;
    fc.traceBitFlipRate = 0.5;
    fc.dramSpikeRate = 0.5;
    fc.dramSpikeCycles = 100;
    FaultInjector a(fc), b(fc);

    MemRequest req;
    req.type = AccessType::Load;
    for (int i = 0; i < 500; ++i) {
        unsigned char ra[33] = {}, rb[33] = {};
        a.mutateTraceRecord(ra, sizeof(ra));
        b.mutateTraceRecord(rb, sizeof(rb));
        EXPECT_EQ(std::memcmp(ra, rb, sizeof(ra)), 0);
        EXPECT_EQ(a.extraDramLatency(req), b.extraDramLatency(req));
    }
    EXPECT_EQ(a.stats().traceBitFlips, b.stats().traceBitFlips);
    EXPECT_EQ(a.stats().dramSpikes, b.stats().dramSpikes);
    EXPECT_GT(a.stats().traceBitFlips, 100u);
    EXPECT_GT(a.stats().dramSpikes, 100u);
}

TEST(FaultInjectorTest, SpikesHitTheConfiguredLatency)
{
    FaultConfig fc;
    fc.dramSpikeRate = 1.0;
    fc.dramSpikeCycles = 321;
    FaultInjector inj(fc);
    MemRequest req;
    req.type = AccessType::Load;
    EXPECT_EQ(inj.extraDramLatency(req), 321u);
    EXPECT_EQ(inj.stats().dramSpikes, 1u);
}

// --------------------------------- Berti under injected fault pressure

namespace
{

RunStats
runBertiUnderFaults(FaultInjector &inj)
{
    StreamGen::Params p;
    StreamGen gen(p);
    MachineConfig cfg = MachineConfig::sunnyCove(1);
    cfg.l1dPrefetcher = makeSpec("berti").l1d;
    cfg.audit.enabled = true;
    cfg.audit.interval = 2048;
    cfg.faults = &inj;
    Machine m(cfg, {&gen});
    m.run(40000);
    return m.liveStats(0);
}

FaultConfig
noisyDramConfig()
{
    FaultConfig fc;
    fc.seed = 4242;
    fc.dramSpikeRate = 0.25;
    fc.dramSpikeCycles = 150;
    fc.dropPrefetchFillRate = 0.25;
    fc.delayPrefetchFillRate = 0.25;
    fc.prefetchDelayCycles = 60;
    return fc;
}

} // namespace

TEST(BertiUnderFaultsTest, CountersStaySelfConsistent)
{
    // Latency spikes, delayed fills and dropped fills attack exactly
    // the signal Berti learns from (measured fetch latency). The run
    // must complete with the auditor on, and the accuracy/coverage
    // counter algebra must survive the injected variance.
    FaultInjector inj(noisyDramConfig());
    RunStats s = runBertiUnderFaults(inj);

    EXPECT_GE(s.core.instructions, 40000u);
    EXPECT_EQ(s.l1d.demandAccesses,
              s.l1d.demandHits + s.l1d.demandMisses +
                  s.l1d.demandMshrMerged);
    // Every fill is later classified useful or useless (or is still
    // resident); classifications can never exceed fills.
    EXPECT_LE(s.l1d.prefetchUseful + s.l1d.prefetchUseless,
              s.l1d.prefetchFills);
    // Dropped fills mean installs can only trail issues.
    EXPECT_LE(s.l1d.prefetchFills, s.l1d.prefetchIssued);
    EXPECT_GT(s.l1d.prefetchIssued, 0u);

    // The campaign actually fired.
    EXPECT_GT(inj.stats().dramSpikes, 0u);
    EXPECT_GT(inj.stats().droppedPrefetchFills, 0u);
}

TEST(BertiUnderFaultsTest, FaultCampaignsAreReproducible)
{
    FaultInjector a(noisyDramConfig());
    RunStats s1 = runBertiUnderFaults(a);
    FaultInjector b(noisyDramConfig());
    RunStats s2 = runBertiUnderFaults(b);

    EXPECT_EQ(s1.core.cycles, s2.core.cycles);
    EXPECT_EQ(s1.core.instructions, s2.core.instructions);
    EXPECT_EQ(s1.l1d.prefetchIssued, s2.l1d.prefetchIssued);
    EXPECT_EQ(s1.l1d.prefetchFills, s2.l1d.prefetchFills);
    EXPECT_EQ(s1.l1d.demandMisses, s2.l1d.demandMisses);
    EXPECT_EQ(a.stats().dramSpikes, b.stats().dramSpikes);
    EXPECT_EQ(a.stats().droppedPrefetchFills,
              b.stats().droppedPrefetchFills);
}

TEST(BertiUnderFaultsTest, ExperimentHarnessThreadsFaultsAndAudit)
{
    FaultInjector inj(noisyDramConfig());
    SimParams params;
    params.warmupInstructions = 5000;
    params.measureInstructions = 20000;
    params.forceAudit = true;
    params.faults = &inj;
    SimResult r =
        simulate(findWorkload("stream-like.1"), makeSpec("berti"), params);
    EXPECT_GT(r.ipc, 0.0);
    EXPECT_GE(r.roi.core.instructions, 20000u);
    EXPECT_GT(inj.stats().dramSpikes, 0u);
}

} // namespace berti
