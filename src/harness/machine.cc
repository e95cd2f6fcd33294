#include "harness/machine.hh"

#include "energy/energy_model.hh"
#include "verify/fault_injector.hh"
#include "verify/sim_error.hh"

namespace berti
{

namespace
{

[[noreturn]] void
rejectConfig(const std::string &reason)
{
    throw verify::SimError(verify::ErrorKind::Config, "Machine", reason);
}

} // namespace

MachineConfig
MachineConfig::sunnyCove(unsigned cores)
{
    MachineConfig m;
    m.cores = cores;

    m.l1i.name = "L1I";
    m.l1i.level = 1;
    m.l1i.sets = 64;       // 32 KB, 8-way
    m.l1i.ways = 8;
    m.l1i.latency = 4;
    m.l1i.mshrs = 8;
    m.l1i.rqSize = 16;
    m.l1i.repl = ReplKind::Lru;
    m.l1i.trainOnInstrFetch = true;

    m.l1d.name = "L1D";
    m.l1d.level = 1;
    m.l1d.sets = 64;       // 48 KB, 12-way
    m.l1d.ways = 12;
    m.l1d.latency = 5;
    m.l1d.mshrs = 16;
    m.l1d.rqSize = 32;
    m.l1d.pqSize = 16;
    m.l1d.repl = ReplKind::Lru;
    m.l1d.isL1d = true;

    m.l2.name = "L2";
    m.l2.level = 2;
    m.l2.sets = 1024;      // 512 KB, 8-way
    m.l2.ways = 8;
    m.l2.latency = 10;
    m.l2.mshrs = 32;
    m.l2.rqSize = 48;
    m.l2.pqSize = 32;
    m.l2.repl = ReplKind::Srrip;

    m.llc.name = "LLC";
    m.llc.level = 3;
    m.llc.sets = 2048;     // 2 MB/core, 16-way; scaled at build
    m.llc.ways = 16;
    m.llc.latency = 20;
    m.llc.mshrs = 64;      // per core; scaled at build
    m.llc.rqSize = 64;
    m.llc.repl = ReplKind::Drrip;

    m.dram = DramConfig{};  // the ddr4 registry preset (one channel)
    return m;
}

void
MachineConfig::applyOptions(const sim::SimOptions &opt)
{
    sampler = obs::SamplerConfig::fromOptions(opt);
    pfTrace = obs::TraceConfig::fromOptions(opt);
    audit = verify::AuditConfig::fromOptions(opt);
    cycleSkip = opt.cycleSkip;
    if (!opt.memBackend.empty()) {
        mem::ParsedBackend backend = mem::parseBackendSpec(opt.memBackend);
        dram = backend.channel;
        memBackend = backend.sel;
    }
}

Machine::Machine(const MachineConfig &config,
                 std::vector<TraceGenerator *> generators)
    : cfg(config), gens(generators),
      bornAt(std::chrono::steady_clock::now()),
      watchdog(cfg.watchdog, &clock)
{
    // Always-on configuration validation (replaces release-invisible
    // asserts): every structural mistake fails loudly, typed, at
    // construction time.
    if (cfg.cores == 0)
        rejectConfig("a machine needs at least one core");
    if (generators.size() != cfg.cores) {
        rejectConfig("generator count " +
                     std::to_string(generators.size()) +
                     " does not match core count " +
                     std::to_string(cfg.cores));
    }
    for (TraceGenerator *g : generators) {
        if (!g)
            rejectConfig("null trace generator");
    }
    // Backend geometry/timing validation (typed, names the bad field).
    cfg.dram.validate();

    if (cfg.audit.enabled)
        audit = std::make_unique<verify::SimAuditor>(cfg.audit, &clock);

    dram = cfg.memBackendHook
               ? cfg.memBackendHook(&clock)
               : mem::makeMemBackend(cfg.memBackend, cfg.dram, &clock);
    if (!dram)
        rejectConfig("memory backend hook returned null");
    if (cfg.faults)
        dram->setFaultInjector(cfg.faults);

    CacheConfig llc_cfg = cfg.llc;
    llc_cfg.sets *= cfg.cores;     // 2 MB and 64 MSHRs per core
    llc_cfg.mshrs *= cfg.cores;
    llc_cfg.rqSize *= cfg.cores;
    llc = std::make_unique<Cache>(llc_cfg, &clock);
    llc->setLower(dram.get());

    if (cfg.pfTrace.capacity > 0)
        ptraces.resize(cfg.cores);

    for (unsigned c = 0; c < cfg.cores; ++c) {
        auto node = std::make_unique<CoreNode>();

        TranslationUnit::Config tlb_cfg = cfg.tlb;
        tlb_cfg.pageSeed = cfg.tlb.pageSeed + 0x1000ull * c;
        node->tu = std::make_unique<TranslationUnit>(tlb_cfg);

        node->l1iCache = std::make_unique<Cache>(cfg.l1i, &clock);
        node->l1dCache = std::make_unique<Cache>(cfg.l1d, &clock);
        node->l2Cache = std::make_unique<Cache>(cfg.l2, &clock);

        node->l1iCache->setLower(node->l2Cache.get());
        node->l1dCache->setLower(node->l2Cache.get());
        node->l2Cache->setLower(llc.get());
        node->l1dCache->setTranslation(node->tu.get());

        if (cfg.l1dPrefetcher)
            node->l1dCache->setPrefetcher(cfg.l1dPrefetcher());
        if (cfg.l2Prefetcher)
            node->l2Cache->setPrefetcher(cfg.l2Prefetcher());
        if (cfg.l1iPrefetcher)
            node->l1iCache->setPrefetcher(cfg.l1iPrefetcher());

        if (cfg.pfTrace.capacity > 0) {
            ptraces[c] =
                std::make_unique<obs::PrefetchEventTrace>(cfg.pfTrace);
            node->l1iCache->setEventTrace(ptraces[c].get());
            node->l1dCache->setEventTrace(ptraces[c].get());
            node->l2Cache->setEventTrace(ptraces[c].get());
        }

        node->cpu = std::make_unique<Core>(
            cfg.core, &clock, c, generators[c], node->l1iCache.get(),
            node->l1dCache.get(), node->tu.get());

        // Wiring validation + hardening hooks for this node.
        node->l1iCache->validateWiring();
        node->l1dCache->validateWiring();
        node->l2Cache->validateWiring();
        if (cfg.faults) {
            node->l1iCache->setFaultInjector(cfg.faults);
            node->l1dCache->setFaultInjector(cfg.faults);
            node->l2Cache->setFaultInjector(cfg.faults);
        }
        if (audit) {
            audit->attach(node->l1iCache.get());
            audit->attach(node->l1dCache.get());
            audit->attach(node->l2Cache.get());
            audit->attach(node->cpu.get());
            audit->attach(node->tu.get());
        }

        nodes.push_back(std::move(node));
    }
    llc->validateWiring();
    if (cfg.faults)
        llc->setFaultInjector(cfg.faults);
    if (audit) {
        audit->attach(llc.get());
        audit->attach(dram.get());
    }
    snapshots.resize(cfg.cores);
    for (unsigned c = 0; c < cfg.cores; ++c)
        snapshots[c] = liveStats(c);
    runTargets.reserve(cfg.cores);
    runDone.reserve(cfg.cores);
    tickedCores.reserve(cfg.cores);

    registerAllMetrics();
    if (cfg.sampler.interval > 0) {
        sampler = std::make_unique<obs::IntervalSampler>(&metricsReg,
                                                         cfg.sampler);
    }
}

void
Machine::registerAllMetrics()
{
    metricsReg.counter("machine.cycles", &clock);
    dram->registerMetrics(metricsReg, "dram.");
    llc->registerMetrics(metricsReg, "llc.");
    for (unsigned c = 0; c < cfg.cores; ++c) {
        std::string p = "c";
        p += std::to_string(c);
        p += '.';
        CoreNode &n = *nodes[c];
        n.cpu->registerMetrics(metricsReg, p + "core.");
        n.l1iCache->registerMetrics(metricsReg, p + "l1i.");
        n.l1dCache->registerMetrics(metricsReg, p + "l1d.");
        n.l2Cache->registerMetrics(metricsReg, p + "l2.");
        n.tu->registerMetrics(metricsReg, p + "dtlb.", p + "stlb.");
    }
    // Dynamic-energy gauges over the machine-wide aggregate, matching
    // the paper's energy figures (normalised elsewhere).
    auto energy_gauge = [this](double EnergyBreakdown::*part) {
        return [this, part] {
            return EnergyModel().evaluate(aggregateStats()).*part;
        };
    };
    metricsReg.gauge("energy.l1", energy_gauge(&EnergyBreakdown::l1));
    metricsReg.gauge("energy.l2", energy_gauge(&EnergyBreakdown::l2));
    metricsReg.gauge("energy.llc", energy_gauge(&EnergyBreakdown::llc));
    metricsReg.gauge("energy.dram", energy_gauge(&EnergyBreakdown::dram));
    metricsReg.gauge("energy.total", [this] {
        return EnergyModel().evaluate(aggregateStats()).total();
    });
}

void
Machine::tick()
{
    // A cache is ticked only while it is awake: until wakeCycle() its
    // tick would do nothing, unless unsent MSHRs wait on room below,
    // which only the lower level's tick (earlier in the cycle) can make.
    // Input that reaches a cache before its turn in this cycle (a fill
    // from below) wakes it for this cycle's tick; input after its turn
    // (a request from above) wakes it for the next one, exactly when an
    // every-cycle tick would first see it. A core is gated the same way,
    // on the L1D room it may wait on. The DRAM gates its own tick. A
    // skipped core tick only counts the cycle.
    auto tickAwake = [](Cache &c) {
        if (c.awake())
            c.tick();
    };
    ++clock;
    dram->tick();
    tickAwake(*llc);
    tickedCores.clear();
    for (unsigned c = 0; c < cfg.cores; ++c) {
        CoreNode &n = *nodes[c];
        tickAwake(*n.l2Cache);
        tickAwake(*n.l1dCache);
        tickAwake(*n.l1iCache);
        Core &cpu = *n.cpu;
        if (cpu.awake()) {
            cpu.tick();
            tickedCores.push_back(c);
        } else {
            ++cpu.stats.cycles;
        }
    }
    if (audit)
        audit->tick();
}

void
Machine::fastForward(Cycle cycles)
{
    // An idle tick's only observable effect is ++clock plus one
    // ++stats.cycles per core (watchdog observations are value-stable
    // and the instruction-triggered sampler cannot fire while nothing
    // retires), so a block of idle ticks collapses to bulk additions.
    clock += cycles;
    for (auto &n : nodes)
        n->cpu->stats.cycles += cycles;
    cyclesSkipped += cycles;
}

void
Machine::run(std::uint64_t target_instructions)
{
    runTargets.assign(cfg.cores, 0);
    runDone.assign(cfg.cores, 0);
    for (unsigned c = 0; c < cfg.cores; ++c)
        runTargets[c] = nodes[c]->cpu->stats.instructions +
                        target_instructions;

    unsigned remaining = cfg.cores;
    // Hard safety bound so a configuration bug cannot hang a bench.
    std::uint64_t max_cycles =
        clock + 2000ull * target_instructions + 1000000ull;

    watchdog.reset(cfg.cores);
    // The cycle the watchdog first finds a core wedged; it moves only
    // when an observation records progress.
    Cycle wedge_at = watchdog.nextDeadline();
    // Retirement and the ROB head change only inside Core::tick, so a
    // core that did not tick would be observed with the values it had
    // last time. The first pass observes every core.
    bool first_pass = true;
    while (remaining > 0 && clock < max_cycles) {
        tick();
        bool progressed = false;
        auto observe = [&](unsigned c) {
            Core &cpu = *nodes[c]->cpu;
            progressed |= watchdog.observe(c, cpu.stats.instructions,
                                           cpu.robHeadId());
            if (!runDone[c] && cpu.stats.instructions >= runTargets[c]) {
                runDone[c] = 1;
                snapshots[c] = liveStats(c);
                --remaining;
            }
        };
        if (first_pass) {
            for (unsigned c = 0; c < cfg.cores; ++c)
                observe(c);
            first_pass = false;
        } else {
            for (unsigned c : tickedCores)
                observe(c);
        }
        if (progressed)
            wedge_at = watchdog.nextDeadline();
        if (clock >= wedge_at)
            failWedged(static_cast<unsigned>(watchdog.stalledCore()));

        // Wall-clock deadline, probed every 16384 iterations so the
        // steady_clock read stays off the hot path. Purely an observer:
        // enabling a budget cannot change simulated behaviour, only cut
        // a run short with a typed, diagnosable error.
        if (cfg.wallClockBudgetMs > 0 && (++deadlineProbe & 0x3FFF) == 0) {
            auto elapsed =
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    std::chrono::steady_clock::now() - bornAt)
                    .count();
            if (static_cast<std::uint64_t>(elapsed) >=
                cfg.wallClockBudgetMs) {
                throw verify::SimError(
                    verify::ErrorKind::Timeout, "Machine",
                    "wall-clock budget of " +
                        std::to_string(cfg.wallClockBudgetMs) +
                        " ms exhausted after " + std::to_string(elapsed) +
                        " ms at cycle " + std::to_string(clock),
                    {}, 0, diagnostic());
            }
        }
        if (sampler)
            sampler->maybeSample(nodes[0]->cpu->stats.instructions,
                                 clock);

        // Quiescence cycle-skip: every cache and core is asleep until
        // its wake cycle and the DRAM until its next event, so
        // fast-forward to just before the earliest of those, the
        // auditor's interval check, the watchdog deadline and the hard
        // bound. The next tick then executes at exactly the cycle it
        // would have without skipping, and results stay bit-identical
        // (see ARCHITECTURE.md, "Performance").
        if (cfg.cycleSkip && remaining > 0 && clock < max_cycles) {
            Cycle next = std::min<Cycle>(wedge_at, max_cycles);
            if (audit)
                next = std::min(next, audit->nextCheckCycle());
            next = std::min(next, llc->wakeCycle());
            for (const auto &n : nodes) {
                next = std::min({next, n->l2Cache->wakeCycle(),
                                 n->l1dCache->wakeCycle(),
                                 n->l1iCache->wakeCycle(),
                                 n->cpu->wakeCycle()});
            }
            if (next > clock + 1)
                next = std::min(next, dram->nextEventCycle());
            if (next > clock + 1)
                fastForward(next - (clock + 1));
        }
    }
}

void
Machine::failWedged(unsigned core_id)
{
    throw verify::SimError(
        verify::ErrorKind::Watchdog, "Machine",
        "core " + std::to_string(core_id) +
            " made no forward progress for " +
            std::to_string(watchdog.stalledFor(core_id)) +
            " cycles (stuck ROB head / nothing retiring)",
        {}, 0, diagnostic());
}

namespace
{

void
describeCache(std::string &out, const Cache &cache)
{
    const CacheConfig &c = cache.config();
    out += "  " + c.name + ": rq " +
           std::to_string(cache.rqOccupancy()) + "/" +
           std::to_string(c.rqSize) + ", pq " +
           std::to_string(cache.pqOccupancy()) + "/" +
           std::to_string(c.pqSize) + ", wq " +
           std::to_string(cache.wqOccupancy()) + ", mshr " +
           std::to_string(cache.mshrsInUse()) + "/" +
           std::to_string(c.mshrs) + "\n";
    for (const auto &m : cache.mshrSnapshot()) {
        out += "    mshr line " + std::to_string(m.pLine) +
               (m.isPrefetch ? " prefetch" : " demand") +
               (m.hadDemand ? "+demand-waiter" : "") +
               (m.sentBelow ? "" : " UNSENT") + ", age " +
               std::to_string(m.age) + "\n";
    }
    if (const Prefetcher *pf = cache.prefetcher()) {
        std::string state = pf->debugState();
        if (!state.empty())
            out += "    " + state + "\n";
    }
}

} // namespace

std::string
Machine::diagnostic() const
{
    std::string out = "machine diagnostic @ cycle " +
                      std::to_string(clock) + "\n";
    for (unsigned c = 0; c < cfg.cores; ++c) {
        const CoreNode &n = *nodes[c];
        out += "core " + std::to_string(c) + ": retired " +
               std::to_string(n.cpu->stats.instructions) + ", rob " +
               std::to_string(n.cpu->robOccupancy()) + "/" +
               std::to_string(cfg.core.robSize) + " (head id " +
               std::to_string(n.cpu->robHeadId()) +
               (n.cpu->robHeadDone() ? ", done" : ", waiting") +
               "), fetch buffer " +
               std::to_string(n.cpu->fetchBufferOccupancy()) +
               ", pending mem " +
               std::to_string(n.cpu->pendingAccessCount()) +
               ", outstanding loads " +
               std::to_string(n.cpu->outstandingLoadCount()) + "\n";
        describeCache(out, *n.l1iCache);
        describeCache(out, *n.l1dCache);
        describeCache(out, *n.l2Cache);
    }
    describeCache(out, *llc);
    out += "  DRAM: rq " + std::to_string(dram->rqOccupancy()) + ", wq " +
           std::to_string(dram->wqOccupancy()) + ", pending " +
           std::to_string(dram->pendingReads()) + "\n";
    return out;
}

RunStats
Machine::liveStats(unsigned c) const
{
    RunStats s;
    s.core = nodes[c]->cpu->stats;
    s.core.cycles = clock;  // wall-clock cycles of the machine
    s.l1i = nodes[c]->l1iCache->stats;
    s.l1d = nodes[c]->l1dCache->stats;
    s.l2 = nodes[c]->l2Cache->stats;
    s.llc = llc->stats;
    s.dtlb = nodes[c]->tu->dtlbStats();
    s.stlb = nodes[c]->tu->stlbStats();
    s.dram = dram->statsSnapshot();
    return s;
}

RunStats
Machine::coreSnapshot(unsigned c) const
{
    return snapshots[c];
}

RunStats
Machine::aggregateStats() const
{
    RunStats s;
    for (const auto &n : nodes) {
        addStatFields(s.core, n->cpu->stats);
        addStatFields(s.l1i, n->l1iCache->stats);
        addStatFields(s.l1d, n->l1dCache->stats);
        addStatFields(s.l2, n->l2Cache->stats);
        TlbStats dtlb = n->tu->dtlbStats();
        TlbStats stlb = n->tu->stlbStats();
        addStatFields(s.dtlb, dtlb);
        addStatFields(s.stlb, stlb);
    }
    s.core.cycles = clock;
    s.llc = llc->stats;
    s.dram = dram->statsSnapshot();
    return s;
}

} // namespace berti
