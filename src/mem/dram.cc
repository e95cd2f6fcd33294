#include "mem/dram.hh"

#include "obs/metrics.hh"
#include "verify/fault_injector.hh"
#include "verify/sim_error.hh"

namespace berti
{

namespace
{

[[noreturn]] void
rejectField(const std::string &field, const std::string &detail)
{
    throw verify::SimError(verify::ErrorKind::Config, "DramConfig",
                           field + " " + detail);
}

} // namespace

void
DramConfig::validate() const
{
    if (banks == 0)
        rejectField("banks", "must be > 0");
    if (rqSize == 0)
        rejectField("rqSize", "must be > 0");
    if (wqSize == 0)
        rejectField("wqSize", "must be > 0");
    if (rowBytes < kLineSize || rowBytes % kLineSize != 0) {
        rejectField("rowBytes",
                    "= " + std::to_string(rowBytes) +
                        " must be a positive multiple of the " +
                        std::to_string(kLineSize) + " B line size");
    }
    if (mtps == 0)
        rejectField("mtps", "must be > 0");
    if (busBytes == 0)
        rejectField("busBytes", "must be > 0");
    if (tRp == 0)
        rejectField("tRp", "must be > 0");
    if (tRcd == 0)
        rejectField("tRcd", "must be > 0");
    if (tCas == 0)
        rejectField("tCas", "must be > 0");
    if (!(writeDrainWatermark > 0.0) || writeDrainWatermark > 1.0) {
        rejectField("writeDrainWatermark",
                    "= " + std::to_string(writeDrainWatermark) +
                        " must be in (0, 1]");
    }
    if (burstCycles() == 0) {
        rejectField("mtps/busBytes",
                    "data rate so high a 64 B burst rounds to 0 cycles "
                    "(mtps=" + std::to_string(mtps) +
                        ", busBytes=" + std::to_string(busBytes) + ")");
    }
}

Dram::Dram(const DramConfig &config, const Cycle *clock_ptr)
    : cfg(config), clock(clock_ptr), banks(cfg.banks)
{
    cfg.validate();
    burst = cfg.burstCycles();
    // The lookahead window lets commands issue while earlier data is
    // still in the CAS pipeline: it covers a full precharge+activate+CAS
    // plus a few bursts of bus backlog, so row hits stream at burst
    // rate.
    lookahead = cfg.tRp + cfg.tRcd + cfg.tCas + 4 * burst;
    drainHigh =
        static_cast<std::size_t>(cfg.writeDrainWatermark * cfg.wqSize);
    linesPerRow = cfg.rowBytes / kLineSize;

    // Allocation-free steady state: queue rings at their configured
    // bounds (wq is soft-capacity, so headroom), and the completion
    // heap's backing vector pre-reserved past the read-queue bound.
    rq.reserve(cfg.rqSize);
    rqKeys.reserve(cfg.rqSize);
    wq.reserve(2 * static_cast<std::size_t>(cfg.wqSize) + 8);
    std::vector<Completion> backing;
    backing.reserve(cfg.rqSize + 8);
    inflight = decltype(inflight)(std::greater<Completion>(),
                                  std::move(backing));
}

Dram::RowKey
Dram::keyOf(Addr p_line) const
{
    // Row-interleaved banking: consecutive 4 KB rows land on different
    // banks so streams exploit bank-level parallelism.
    Addr row = p_line / linesPerRow;
    return {row, static_cast<unsigned>(row % cfg.banks)};
}

bool
Dram::submitRead(MemRequest req)
{
    if (rq.size() >= cfg.rqSize)
        return false;
    req.enqueueCycle = *clock;
    rq.push_back(req);
    rqKeys.push_back(keyOf(req.pLine));
    wakeAt = *clock;
    return true;
}

void
Dram::submitWriteback(Addr p_line)
{
    // Soft capacity (see Cache::submitWriteback); drained with priority
    // once past the watermark.
    wq.push_back(p_line);
    wakeAt = *clock;
}

Cycle
Dram::accessBank(const RowKey &key)
{
    Bank &bank = banks[key.bank];
    Addr row = key.row;

    Cycle start = std::max(*clock, bank.readyCycle);
    Cycle access;   //!< command-to-data latency
    Cycle occupy;   //!< bank busy time before the next command
    if (bank.openRow == row) {
        // Column accesses to an open row pipeline at burst rate.
        access = cfg.tCas;
        occupy = burst;
        ++stats.rowHits;
    } else if (bank.openRow == kNoAddr) {
        access = cfg.tRcd + cfg.tCas;
        occupy = cfg.tRcd + burst;
        ++stats.rowMisses;
    } else {
        access = cfg.tRp + cfg.tRcd + cfg.tCas;
        occupy = cfg.tRp + cfg.tRcd + burst;
        ++stats.rowConflicts;
    }
    bank.openRow = row;

    Cycle data_ready = start + access;
    Cycle bus_start = std::max(data_ready, busFreeCycle);
    Cycle finish = bus_start + burst;
    busFreeCycle = finish;
    bank.readyCycle = start + occupy;
    stats.busBusyCycles += burst;
    return finish + cfg.linkLatency;
}

void
Dram::scheduleOne()
{
    // Hysteretic write drain: start at the high watermark, stop when
    // half-empty or a read arrives and pressure is off.
    if (wq.size() >= drainHigh)
        drainingWrites = true;
    if (wq.empty() || (drainingWrites && wq.size() < cfg.wqSize / 2))
        drainingWrites = false;

    bool do_write = drainingWrites || (rq.empty() && !wq.empty());
    if (do_write) {
        // FR-FCFS among writes: first row hit, else oldest. FCFS takes
        // strictly the oldest. No starvation cap on the write side —
        // writes are latency-insensitive and drain in bursts anyway.
        std::size_t pick = 0;
        if (cfg.sched == DramSchedKind::FrFcfs) {
            for (std::size_t i = 0; i < wq.size(); ++i) {
                if (rowOpen(keyOf(wq[i]))) {
                    pick = i;
                    break;
                }
            }
        }
        RowKey key = keyOf(wq[pick]);
        wq.erase(pick);
        accessBank(key);
        ++stats.writes;
        return;
    }

    if (rq.empty())
        return;

    // FR-FCFS among reads: the oldest request to an open row wins;
    // otherwise — and always under FCFS, or once the starvation cap is
    // spent — the oldest request overall.
    std::size_t pick = 0;
    bool found_hit = false;
    if (cfg.sched == DramSchedKind::FrFcfs &&
        (cfg.starvationCap == 0 || headBypassed < cfg.starvationCap)) {
        for (std::size_t i = 0; i < rqKeys.size(); ++i) {
            if (rowOpen(rqKeys[i])) {
                pick = i;
                found_hit = true;
                break;
            }
        }
    }
    if (!found_hit)
        pick = 0;
    headBypassed = pick == 0 ? 0 : headBypassed + 1;

    MemRequest req = rq[pick];
    Cycle finish = accessBank(rqKeys[pick]);
    rq.erase(pick);
    rqKeys.erase(pick);
    ++stats.reads;
    if (faults) {
        // Injected faults: a latency spike delays the response; a lost
        // read swallows it entirely (the requester's MSHR wedges — the
        // watchdog/auditor failure mode under test).
        if (faults->loseDramRead())
            return;
        finish += faults->extraDramLatency(req);
    }
    // Queue-to-data read latency, after any injected spike; lost reads
    // never complete, so they are deliberately not counted.
    stats.readLatencySum += finish - req.enqueueCycle;
    ++stats.readLatencyCount;
    inflight.push({finish, nextCompletionSeq++, req});
}

void
Dram::tick()
{
    if (wakeAt > *clock)
        return;
    while (!inflight.empty() && inflight.top().finish <= *clock) {
        MemRequest req = inflight.top().req;
        inflight.pop();
        if (req.client)
            req.client->readDone(req);
    }

    // One scheduling decision per cycle; the bus/bank timing inside
    // accessBank serialises actual service, and the lookahead window
    // lets commands issue ahead of the bus.
    if (busFreeCycle <= *clock + lookahead)
        scheduleOne();
    wakeAt = nextEventCycle();
}

Cycle
Dram::nextEventCycle() const
{
    Cycle next = kNever;
    if (!inflight.empty())
        next = std::max(inflight.top().finish, *clock + 1);
    // A stale drainingWrites flag counts as pending work: scheduleOne
    // clears it even with empty queues, and skipping that tick would
    // let the hysteresis state diverge from an unskipped run.
    if (!rq.empty() || !wq.empty() || drainingWrites) {
        // The scheduler gate reopens once the bus backlog re-enters the
        // lookahead window.
        Cycle gate = busFreeCycle > lookahead ? busFreeCycle - lookahead
                                              : 0;
        next = std::min(next, std::max(gate, *clock + 1));
    }
    return next;
}

std::string
Dram::auditViolation() const
{
    if (rq.size() > cfg.rqSize) {
        return "read queue occupancy " + std::to_string(rq.size()) +
               " exceeds declared bound " + std::to_string(cfg.rqSize);
    }
    std::size_t wq_bound = 16ull * cfg.wqSize + 256;
    if (wq.size() > wq_bound) {
        return "write queue occupancy " + std::to_string(wq.size()) +
               " exceeds soft bound " + std::to_string(wq_bound);
    }
    if (banks.size() != cfg.banks)
        return "bank array size mismatch";
    // The FR-FCFS scan trusts the key ring in place of the lines.
    if (rqKeys.size() != rq.size()) {
        return "read-queue key ring holds " +
               std::to_string(rqKeys.size()) + " keys for " +
               std::to_string(rq.size()) + " queued reads";
    }
    for (std::size_t i = 0; i < rq.size(); ++i) {
        if (rqKeys[i] != keyOf(rq[i].pLine)) {
            return "read-queue key " + std::to_string(i) +
                   " does not match line " + std::to_string(rq[i].pLine) +
                   " (stale row/bank key)";
        }
    }
    return {};
}

void
Dram::saveState(sim::ByteWriter &w, const sim::PtrMap &clients) const
{
    w.tag(0xD7A30000u);
    saveStatsFields(w, stats);
    for (const Bank &b : banks) {
        w.u64(b.openRow);
        w.u64(b.readyCycle);
    }
    w.u32(static_cast<std::uint32_t>(rq.size()));
    for (const MemRequest &req : rq)
        saveRequest(w, clients, req);
    w.u32(static_cast<std::uint32_t>(wq.size()));
    for (const Addr &a : wq)
        w.u64(a);
    w.b(drainingWrites);
    w.u64(busFreeCycle);
    w.u64(nextCompletionSeq);
    w.u64(headBypassed);

    // Drain a copy of the heap: pops come out in (finish, seq) order,
    // which is total, so the serialized layout is deterministic.
    auto heap = inflight;
    w.u32(static_cast<std::uint32_t>(heap.size()));
    while (!heap.empty()) {
        const Completion &c = heap.top();
        w.u64(c.finish);
        w.u64(c.seq);
        saveRequest(w, clients, c.req);
        heap.pop();
    }
    w.tag(0xD7A300FFu);
}

void
Dram::loadState(sim::ByteReader &r, const sim::PtrMap &clients)
{
    r.expectTag(0xD7A30000u, "dram");
    loadStatsFields(r, stats);
    for (Bank &b : banks) {
        b.openRow = r.u64();
        b.readyCycle = r.u64();
    }
    std::uint32_t nRq = r.u32();
    rq.clear();
    rqKeys.clear();
    for (std::uint32_t i = 0; i < nRq; ++i) {
        rq.push_back(loadRequest(r, clients));
        rqKeys.push_back(keyOf(rq[i].pLine));
    }
    std::uint32_t nWq = r.u32();
    wq.clear();
    for (std::uint32_t i = 0; i < nWq; ++i)
        wq.push_back(r.u64());
    drainingWrites = r.b();
    busFreeCycle = r.u64();
    nextCompletionSeq = r.u64();
    headBypassed = r.u64();

    while (!inflight.empty())
        inflight.pop();
    std::uint32_t nInflight = r.u32();
    for (std::uint32_t i = 0; i < nInflight; ++i) {
        Completion c;
        c.finish = r.u64();
        c.seq = r.u64();
        c.req = loadRequest(r, clients);
        inflight.push(c);
    }
    r.expectTag(0xD7A300FFu, "dram");
    wakeAt = 0;
}

void
Dram::registerMetrics(obs::MetricsRegistry &registry,
                      const std::string &prefix)
{
    forEachStatField(stats,
                     [&](const char *name, std::uint64_t &cell) {
                         registry.counter(prefix + name, &cell);
                     });
    registry.gauge(prefix + "row_hit_rate", [this] {
        std::uint64_t accesses =
            stats.rowHits + stats.rowMisses + stats.rowConflicts;
        return accesses ? static_cast<double>(stats.rowHits) / accesses
                        : 0.0;
    });
    registry.gauge(prefix + "avg_read_latency", [this] {
        return stats.readLatencyCount
                   ? static_cast<double>(stats.readLatencySum) /
                         stats.readLatencyCount
                   : 0.0;
    });
    registry.gauge(prefix + "bus_utilization", [this] {
        return *clock ? static_cast<double>(stats.busBusyCycles) / *clock
                      : 0.0;
    });
}

} // namespace berti
