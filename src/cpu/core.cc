#include "cpu/core.hh"

#include <algorithm>

#include "obs/metrics.hh"

namespace berti
{

Core::Core(const CoreConfig &config, const Cycle *clock_ptr,
           unsigned core_id, TraceGenerator *generator, Cache *l1i_cache,
           Cache *l1d_cache, TranslationUnit *tu)
    : cfg(config), clock(clock_ptr), coreId(core_id), gen(generator),
      l1i(l1i_cache), l1d(l1d_cache), translation(tu), branch(cfg.branch),
      itlb(16, 4, 1)
{
    // Allocation-free steady state: structural bounds are known up
    // front. pendingAccesses can transiently exceed the ROB (stores
    // survive retirement until issued), so it gets headroom and the
    // ring only grows under extreme store backpressure.
    rob.reserve(cfg.robSize);
    fetchBuffer.reserve(cfg.fetchBufferSize);
    pendingAccesses.reserve(2 * static_cast<std::size_t>(cfg.robSize));
}

void
Core::tick()
{
    ++stats.cycles;
    retire();
    issueMemory();
    dispatch();
    fetch();
    wakeAt = nextEventCycle();
}

void
Core::retire()
{
    for (unsigned n = 0; n < cfg.retireWidth && !rob.empty(); ++n) {
        if (!rob.front().done)
            break;
        rob.pop_front();
        ++stats.instructions;
    }
}

void
Core::dispatch()
{
    for (unsigned n = 0; n < cfg.dispatchWidth; ++n) {
        if (fetchBuffer.empty() || robFull())
            return;
        FetchedInstr &fi = fetchBuffer.front();
        const TraceInstr &in = fi.instr;

        // Address dependence: a pointer-chasing load cannot compute its
        // address until the producing load completes.
        if (fi.depLoadId && loadOutstanding(fi.depLoadId))
            return;

        RobEntry entry;
        entry.id = fi.id;
        entry.done = true;

        if (in.isLoad()) {
            ++stats.loads;
            auto queueLoad = [&](Addr vaddr) {
                auto tr = translation->translate(vaddr);
                MemRequest req;
                req.vLine = lineAddr(vaddr);
                req.pLine = lineAddr(tr.paddr);
                req.ip = in.ip;
                req.type = AccessType::Load;
                req.coreId = coreId;
                req.instrId = fi.id;
                req.client = this;
                queueAccess(req, tr.latency, false);
                ++entry.pendingLoads;
            };
            queueLoad(in.load0);
            if (in.load1 != kNoAddr)
                queueLoad(in.load1);
            entry.done = false;
        }
        if (in.isStore()) {
            ++stats.stores;
            auto tr = translation->translate(in.store);
            MemRequest req;
            req.vLine = lineAddr(in.store);
            req.pLine = lineAddr(tr.paddr);
            req.ip = in.ip;
            req.type = AccessType::Rfo;
            req.coreId = coreId;
            req.client = nullptr;  // stores complete post-retirement
            queueAccess(req, tr.latency, true);
        }

        rob.push_back(entry);
        fetchBuffer.pop_front();
    }
}

void
Core::queueAccess(const MemRequest &req, Cycle latency, bool is_store)
{
    Cycle ready = *clock + latency;
    pendingAccesses.push_back({req, ready, is_store});
    issueAt = std::min(issueAt, std::max(ready, *clock + 1));
}

void
Core::issueMemory()
{
    // Besides issuing, record when the issue stage next has work:
    // the earliest access still translating, or the next cycle when a
    // ready access was left for lack of a port.
    issueAt = kNever;
    l1dRefused = false;
    unsigned loads = 0;
    unsigned stores = 0;
    for (std::size_t i = 0; i < pendingAccesses.size();) {
        if (loads >= cfg.maxLoadsPerCycle &&
            stores >= cfg.maxStoresPerCycle) {
            issueAt = *clock + 1;
            break;
        }
        PendingAccess &a = pendingAccesses[i];
        if (a.readyCycle > *clock) {
            issueAt = std::min(issueAt, a.readyCycle);
            ++i;
            continue;
        }
        unsigned &count = a.isStore ? stores : loads;
        unsigned limit =
            a.isStore ? cfg.maxStoresPerCycle : cfg.maxLoadsPerCycle;
        if (count >= limit) {
            issueAt = *clock + 1;
            ++i;
            continue;
        }
        if (!l1d->submitRead(a.req)) {
            // L1D read queue full: try again once it has room.
            l1dRefused = true;
            break;
        }
        ++count;
        pendingAccesses.erase(i);
    }
}

void
Core::fetch()
{
    if (fetchStallUntil > *clock || fetchLinePending)
        return;

    for (unsigned n = 0; n < cfg.fetchWidth; ++n) {
        if (fetchBuffer.size() >= cfg.fetchBufferSize)
            return;

        TraceInstr in = gen->next();

        // Instruction-cache gate: a new instruction line must be present
        // in the L1I before the instruction can enter the fetch buffer.
        Addr v_line = lineAddr(in.ip);
        if (v_line != fetchLine) {
            Addr paddr = translation->pageTable().translate(in.ip);
            if (!itlb.lookup(pageAddr(in.ip))) {
                itlb.fill(pageAddr(in.ip));
                fetchStallUntil = *clock + cfg.itlbMissLatency;
            }
            Addr p_line = lineAddr(paddr);
            fetchLine = v_line;
            if (!l1i->fastHit(p_line)) {
                MemRequest req;
                req.vLine = v_line;
                req.pLine = p_line;
                req.ip = in.ip;
                req.type = AccessType::InstrFetch;
                req.coreId = coreId;
                req.client = this;
                if (l1i->submitRead(req))
                    fetchLinePending = true;
                else
                    fetchLine = kNoAddr;  // retry next cycle
                // The instruction itself still enters the buffer below;
                // subsequent fetches wait for the fill.
            }
        }

        FetchedInstr fi;
        fi.instr = in;
        fi.id = nextInstrId++;
        if (in.dependsOnPrevLoad)
            fi.depLoadId = lastLoadId;
        if (in.isLoad())
            lastLoadId = fi.id;
        fetchBuffer.push_back(fi);

        if (in.isBranch) {
            ++stats.branches;
            bool predicted = branch.predict(in.ip);
            branch.update(in.ip, in.taken);
            if (predicted != in.taken) {
                ++stats.mispredicts;
                // Redirect after resolve: stall the front-end.
                fetchStallUntil = *clock + cfg.mispredictPenalty;
                return;
            }
        }
        if (fetchLinePending)
            return;
    }
}

Cycle
Core::nextEventCycle() const
{
    // Retirement: the head completing is an external event (readDone);
    // an already-done head retires next tick.
    if (robHeadDone())
        return *clock + 1;

    // Memory issue, from the last tick's scans. While the L1D refuses,
    // nothing can issue until its own tick makes room, which the L1D's
    // bound covers and awake() catches.
    Cycle next = l1dRefused ? kNever : issueAt;

    // Dispatch: possible next tick unless the ROB is full (unblocked by
    // retirement, handled above) or the head waits on an outstanding
    // load (unblocked by readDone, an external event).
    if (!fetchBuffer.empty() && !robFull()) {
        const FetchedInstr &fi = fetchBuffer.front();
        if (!(fi.depLoadId && loadOutstanding(fi.depLoadId)))
            next = std::min(next, *clock + 1);
    }

    // Fetch: generators never run dry, so an unblocked front-end with
    // buffer space always has work — at the stall horizon if redirect /
    // iTLB penalties are pending, next tick otherwise. An L1I miss in
    // flight (fetchLinePending) is an external event.
    if (!fetchLinePending && fetchBuffer.size() < cfg.fetchBufferSize)
        next = std::min(next, std::max(fetchStallUntil, *clock + 1));

    return next;
}

void
Core::readDone(const MemRequest &req)
{
    wakeAt = *clock;
    if (req.type == AccessType::InstrFetch) {
        fetchLinePending = false;
        return;
    }

    // Load completion. ROB ids are consecutive (every fetched
    // instruction enters the ROB, in order), so the entry sits at a fixed
    // offset from the head. An id outside the ROB (already retired, or
    // not yet dispatched) wraps or overshoots the offset and is ignored.
    if (rob.empty())
        return;
    std::uint64_t offset = req.instrId - rob.front().id;
    if (offset >= rob.size())
        return;
    RobEntry &e = rob[offset];
    if (e.pendingLoads > 0)
        --e.pendingLoads;
    if (e.pendingLoads == 0)
        e.done = true;
}

std::size_t
Core::outstandingLoadCount() const
{
    std::size_t n = 0;
    for (const RobEntry &e : rob) {
        if (!e.done)
            ++n;
    }
    return n;
}

void
Core::registerMetrics(obs::MetricsRegistry &registry,
                      const std::string &prefix)
{
    forEachStatField(stats,
                     [&](const char *name, std::uint64_t &cell) {
                         registry.counter(prefix + name, &cell);
                     });
    registry.gauge(prefix + "ipc", [this] { return stats.ipc(); });
    itlb.registerMetrics(registry, prefix + "itlb.");
}

namespace
{

void
saveTraceInstr(sim::ByteWriter &w, const TraceInstr &i)
{
    w.u64(i.ip);
    w.u64(i.load0);
    w.u64(i.load1);
    w.u64(i.store);
    w.b(i.isBranch);
    w.b(i.taken);
    w.b(i.dependsOnPrevLoad);
}

TraceInstr
loadTraceInstr(sim::ByteReader &r)
{
    TraceInstr i;
    i.ip = r.u64();
    i.load0 = r.u64();
    i.load1 = r.u64();
    i.store = r.u64();
    i.isBranch = r.b();
    i.taken = r.b();
    i.dependsOnPrevLoad = r.b();
    return i;
}

} // namespace

void
Core::saveState(sim::ByteWriter &w, const sim::PtrMap &clients) const
{
    w.tag(0xC03E0000u + coreId);
    saveStatsFields(w, stats);
    branch.saveState(w);
    itlb.saveState(w);

    w.u32(static_cast<std::uint32_t>(rob.size()));
    for (const RobEntry &e : rob) {
        w.u64(e.id);
        w.b(e.done);
        w.u8(e.pendingLoads);
    }
    w.u32(static_cast<std::uint32_t>(fetchBuffer.size()));
    for (const FetchedInstr &f : fetchBuffer) {
        saveTraceInstr(w, f.instr);
        w.u64(f.id);
        w.u64(f.depLoadId);
    }
    w.u32(static_cast<std::uint32_t>(pendingAccesses.size()));
    for (const PendingAccess &p : pendingAccesses) {
        saveRequest(w, clients, p.req);
        w.u64(p.readyCycle);
        w.b(p.isStore);
    }
    // Outstanding loads, in ROB order.
    w.u32(static_cast<std::uint32_t>(outstandingLoadCount()));
    for (const RobEntry &e : rob) {
        if (!e.done)
            w.u64(e.id);
    }

    w.u64(nextInstrId);
    w.u64(lastLoadId);
    w.u64(fetchStallUntil);
    w.u64(fetchLine);
    w.b(fetchLinePending);
    w.tag(0xC03E00FFu);
}

void
Core::loadState(sim::ByteReader &r, const sim::PtrMap &clients)
{
    r.expectTag(0xC03E0000u + coreId, "core");
    loadStatsFields(r, stats);
    branch.loadState(r);
    itlb.loadState(r);

    std::uint32_t nRob = r.u32();
    rob.clear();
    for (std::uint32_t i = 0; i < nRob; ++i) {
        RobEntry e;
        e.id = r.u64();
        e.done = r.b();
        e.pendingLoads = r.u8();
        rob.push_back(e);
    }
    std::uint32_t nFetch = r.u32();
    fetchBuffer.clear();
    for (std::uint32_t i = 0; i < nFetch; ++i) {
        FetchedInstr f;
        f.instr = loadTraceInstr(r);
        f.id = r.u64();
        f.depLoadId = r.u64();
        fetchBuffer.push_back(f);
    }
    std::uint32_t nPending = r.u32();
    pendingAccesses.clear();
    for (std::uint32_t i = 0; i < nPending; ++i) {
        PendingAccess p;
        p.req = loadRequest(r, clients);
        p.readyCycle = r.u64();
        p.isStore = r.b();
        pendingAccesses.push_back(p);
    }
    // The outstanding loads are read from the ROB, so the saved list
    // must name exactly its not-done entries. Any order is accepted:
    // the list is a set, and blobs written while it was kept in an
    // unordered set store it in another order.
    std::uint32_t nLoads = r.u32();
    std::vector<std::uint64_t> loads;
    for (std::uint32_t i = 0; i < nLoads; ++i)
        loads.push_back(r.u64());
    std::sort(loads.begin(), loads.end());
    std::vector<std::uint64_t> expect;
    for (const RobEntry &e : rob) {
        if (!e.done)
            expect.push_back(e.id);
    }
    if (loads != expect)
        r.fail("outstanding-load list does not match the ROB's " +
               std::to_string(expect.size()) + " incomplete entries");

    nextInstrId = r.u64();
    lastLoadId = r.u64();
    fetchStallUntil = r.u64();
    fetchLine = r.u64();
    fetchLinePending = r.b();
    r.expectTag(0xC03E00FFu, "core");
    wakeAt = 0;
    issueAt = 0;
    l1dRefused = false;
}

} // namespace berti
