#include "cpu/core.hh"

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
    outstandingLoads.reserve(cfg.robSize);
}

void
Core::tick()
{
    ++stats.cycles;
    retire();
    issueMemory();
    dispatch();
    fetch();
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
        if (fi.depLoadId && outstandingLoads.count(fi.depLoadId))
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
                pendingAccesses.push_back({req, *clock + tr.latency,
                                           false});
                ++entry.pendingLoads;
            };
            queueLoad(in.load0);
            if (in.load1 != kNoAddr)
                queueLoad(in.load1);
            entry.done = false;
            outstandingLoads.insert(fi.id);
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
            pendingAccesses.push_back({req, *clock + tr.latency, true});
        }

        rob.push_back(entry);
        fetchBuffer.pop_front();
    }
}

void
Core::issueMemory()
{
    unsigned loads = 0;
    unsigned stores = 0;
    for (std::size_t i = 0; i < pendingAccesses.size();) {
        if (loads >= cfg.maxLoadsPerCycle && stores >= cfg.maxStoresPerCycle)
            break;
        PendingAccess &a = pendingAccesses[i];
        if (a.readyCycle > *clock) {
            ++i;
            continue;
        }
        unsigned &count = a.isStore ? stores : loads;
        unsigned limit =
            a.isStore ? cfg.maxStoresPerCycle : cfg.maxLoadsPerCycle;
        if (count >= limit) {
            ++i;
            continue;
        }
        if (!l1d->submitRead(a.req))
            break;  // L1D read queue full: try again next cycle
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
    Cycle next = kNever;

    // Retirement: the head completing is an external event (readDone);
    // an already-done head retires next tick.
    if (robHeadDone())
        return *clock + 1;

    // Memory issue: any translated access that is (or becomes) ready.
    for (const PendingAccess &a : pendingAccesses)
        next = std::min(next, std::max(a.readyCycle, *clock + 1));

    // Dispatch: possible next tick unless the ROB is full (unblocked by
    // retirement, handled above) or the head waits on an outstanding
    // load (unblocked by readDone, an external event).
    if (!fetchBuffer.empty() && !robFull()) {
        const FetchedInstr &fi = fetchBuffer.front();
        if (!(fi.depLoadId && outstandingLoads.count(fi.depLoadId)))
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
    if (e.pendingLoads == 0) {
        e.done = true;
        outstandingLoads.erase(e.id);
    }
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
    const std::vector<std::uint64_t> &loads = outstandingLoads.raw();
    w.u32(static_cast<std::uint32_t>(loads.size()));
    for (std::uint64_t id : loads)
        w.u64(id);

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
    std::uint32_t nLoads = r.u32();
    std::vector<std::uint64_t> loads;
    loads.reserve(nLoads);
    for (std::uint32_t i = 0; i < nLoads; ++i)
        loads.push_back(r.u64());
    outstandingLoads.assign(std::move(loads));

    nextInstrId = r.u64();
    lastLoadId = r.u64();
    fetchStallUntil = r.u64();
    fetchLine = r.u64();
    fetchLinePending = r.b();
    r.expectTag(0xC03E00FFu, "core");
}

} // namespace berti
