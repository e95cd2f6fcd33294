#include "verify/auditor.hh"

#include <cstdlib>

#include "cpu/core.hh"
#include "mem/backend.hh"
#include "mem/cache.hh"
#include "sim/options.hh"
#include "vm/tlb.hh"

namespace berti::verify
{

AuditConfig
AuditConfig::fromEnv()
{
    return fromOptions(sim::SimOptions::fromEnv());
}

AuditConfig
AuditConfig::fromOptions(const sim::SimOptions &opt)
{
    AuditConfig cfg;
    cfg.enabled = opt.verify;
    cfg.interval = opt.verifyInterval;
    return cfg;
}

SimAuditor::SimAuditor(const AuditConfig &config, const Cycle *clock_ptr)
    : cfg(config), clock(clock_ptr)
{}

void
SimAuditor::attach(const Cache *cache)
{
    caches.push_back(cache);
}

void
SimAuditor::attach(const mem::MemBackend *backend)
{
    backends.push_back(backend);
}

void
SimAuditor::attach(const Core *core)
{
    cores.push_back(core);
}

void
SimAuditor::attach(const TranslationUnit *tu)
{
    tus.push_back(tu);
}

void
SimAuditor::tick()
{
    if (*clock - lastCheck < cfg.interval)
        return;
    lastCheck = *clock;
    checkNow();
}

void
SimAuditor::checkNow() const
{
    ++checks;
    for (const Cache *c : caches)
        checkCache(*c);
    for (const mem::MemBackend *b : backends)
        checkMemBackend(*b);
    for (const Core *c : cores)
        checkCore(*c);
    for (const TranslationUnit *t : tus)
        checkTranslation(*t);
}

void
SimAuditor::fail(const std::string &component,
                 const std::string &reason) const
{
    throw SimError(ErrorKind::Invariant, component, reason, {}, 0,
                   "cycle " + std::to_string(*clock));
}

void
SimAuditor::checkCache(const Cache &cache) const
{
    const CacheConfig &ccfg = cache.cfg;
    const std::string &name = ccfg.name;

    // ------------------------------------------------ MSHR bookkeeping
    unsigned valid = 0;
    unsigned unsent = 0;
    unsigned masked = 0;
    for (unsigned slot = 0; slot < cache.mshr.size(); ++slot) {
        const auto &e = cache.mshr[slot];
        // The retry walks only the slots set in the unsent mask, so the
        // mask must hold exactly the valid entries not yet sent below.
        bool in_mask = (cache.unsentMask[slot / 64] >> (slot % 64)) & 1;
        masked += in_mask;
        if (in_mask != (e.valid && !e.sentBelow))
            fail(name, "unsent slot mask " +
                           std::string(in_mask ? "holds" : "misses") +
                           " MSHR entry " + std::to_string(slot) +
                           " (the retry would " +
                           (in_mask ? "resend it)" : "never send it)"));
        if (!e.valid)
            continue;
        ++valid;
        if (!e.sentBelow)
            ++unsent;
        if (e.pLine == kNoAddr)
            fail(name, "valid MSHR entry with no line address");
        // findMshr answers from the line index alone, so every valid
        // entry must be found through it, at its own slot. This also
        // rules out two valid entries for one line.
        const unsigned *indexed = cache.mshrIndex.find(e.pLine);
        if (!indexed || *indexed != slot)
            fail(name, "MSHR entry " + std::to_string(slot) + " (line " +
                           std::to_string(e.pLine) +
                           ") is not found at its slot through the MSHR "
                           "line index");
        Cycle age = *clock >= e.ts ? *clock - e.ts : 0;
        if (age > cfg.mshrLeakCycles) {
            fail(name,
                 "leaked MSHR entry: line " + std::to_string(e.pLine) +
                     (e.isPrefetch ? " (prefetch)" : " (demand)") +
                     " outstanding for " + std::to_string(age) +
                     " cycles (timestamp bookkeeping would corrupt "
                     "Berti's latency measurement)");
        }
    }
    if (valid != cache.mshrUsed) {
        fail(name, "MSHR in-use count " +
                       std::to_string(cache.mshrUsed) + " != " +
                       std::to_string(valid) + " valid entries");
    }
    if (cache.mshrIndex.size() != cache.mshrUsed) {
        fail(name, "MSHR line index holds " +
                       std::to_string(cache.mshrIndex.size()) +
                       " lines but " + std::to_string(cache.mshrUsed) +
                       " MSHR entries are in use (stale index entry)");
    }

    // -------------------------------------------- MSHR arena free-list
    // The free-list and the valid bits must partition the arena: a live
    // entry on the free-list would be recycled while a response is
    // still in flight.
    if (cache.mshrFree.size() != ccfg.mshrs - cache.mshrUsed) {
        fail(name, "MSHR free-list holds " +
                       std::to_string(cache.mshrFree.size()) +
                       " entries; expected " +
                       std::to_string(ccfg.mshrs - cache.mshrUsed));
    }
    for (unsigned idx : cache.mshrFree) {
        if (idx >= ccfg.mshrs)
            fail(name, "MSHR free-list index " + std::to_string(idx) +
                           " out of range");
        if (cache.mshr[idx].valid)
            fail(name, "live MSHR entry " + std::to_string(idx) +
                           " present on the free-list (would be "
                           "recycled under an in-flight response)");
    }
    if (cache.unsentMshrs != unsent)
        fail(name, "unsent-MSHR count " +
                       std::to_string(cache.unsentMshrs) + " != " +
                       std::to_string(unsent) +
                       " valid entries awaiting a lower-level slot "
                       "(retry scheduling would stall or spin)");
    if (masked != cache.unsentMshrs)
        fail(name, "unsent slot mask holds " + std::to_string(masked) +
                       " slots but the unsent-MSHR count is " +
                       std::to_string(cache.unsentMshrs));

    // ------------------------------------------------------- tick gate
    // The cycle skip jumps to the earliest wake cycle, so a cache must
    // never sleep past work it already has.
    if (cache.wakeCycle() > cache.nextEventCycle())
        fail(name, "cache sleeps until cycle " +
                       std::to_string(cache.wakeCycle()) +
                       " but has work at cycle " +
                       std::to_string(cache.nextEventCycle()) +
                       " (the cycle skip would jump past it)");

    // ------------------------------------------------- queue occupancy
    if (cache.rq.size() > ccfg.rqSize)
        fail(name, "RQ occupancy " + std::to_string(cache.rq.size()) +
                       " exceeds declared bound " +
                       std::to_string(ccfg.rqSize));
    if (cache.pq.size() > ccfg.pqSize)
        fail(name, "PQ occupancy " + std::to_string(cache.pq.size()) +
                       " exceeds declared bound " +
                       std::to_string(ccfg.pqSize));
    // issuePrefetch deduplicates against the key ring alone, so it must
    // hold exactly the key of every PQ entry, in queue order.
    if (cache.pqKeys.size() != cache.pq.size())
        fail(name, "PQ key ring holds " +
                       std::to_string(cache.pqKeys.size()) + " keys for " +
                       std::to_string(cache.pq.size()) + " PQ entries");
    for (std::size_t i = 0; i < cache.pq.size(); ++i) {
        const MemRequest &req = cache.pq[i];
        Addr key = ccfg.isL1d ? req.vLine : req.pLine;
        if (cache.pqKeys[i] != key)
            fail(name, "PQ key " + std::to_string(cache.pqKeys[i]) +
                           " at position " + std::to_string(i) +
                           " is not its entry's line " +
                           std::to_string(key) +
                           " (prefetch dedup would miss or over-drop)");
    }
    // The WQ is soft-capacity by design (fills must never deadlock), so
    // its declared bound is a burst multiple of the configured size.
    std::size_t wq_bound = 16ull * ccfg.wqSize + 256;
    if (cache.wq.size() > wq_bound)
        fail(name, "WQ occupancy " + std::to_string(cache.wq.size()) +
                       " exceeds soft bound " + std::to_string(wq_bound));

    // ------------------------------------------- tag-array consistency
    // findLine scans only the home set's tags and returns the first
    // match, so a valid tag must sit in its home set, once.
    for (unsigned set = 0; set < ccfg.sets; ++set) {
        std::size_t base = static_cast<std::size_t>(set) * ccfg.ways;
        for (unsigned w = 0; w < ccfg.ways; ++w) {
            Addr tag = cache.tags[base + w];
            if (tag == kNoAddr)
                continue;
            if (cache.setIndex(tag) != set)
                fail(name, "line " + std::to_string(tag) +
                               " stored in foreign set " +
                               std::to_string(set));
            for (unsigned w2 = w + 1; w2 < ccfg.ways; ++w2) {
                if (cache.tags[base + w2] == tag)
                    fail(name, "duplicate tag " + std::to_string(tag) +
                                   " in set " + std::to_string(set));
            }
        }
    }

    // ----------------------------------------------------- stats algebra
    const CacheStats &s = cache.stats;
    if (s.demandAccesses !=
        s.demandHits + s.demandMisses + s.demandMshrMerged) {
        fail(name, "stats algebra broken: accesses " +
                       std::to_string(s.demandAccesses) +
                       " != hits + misses + merges");
    }
}

void
SimAuditor::checkMemBackend(const mem::MemBackend &backend) const
{
    // The backend owns its invariants (queue bounds, geometry
    // consistency); the hook returns "" while they hold.
    std::string violation = backend.auditViolation();
    if (!violation.empty())
        fail(backend.name(), violation);
}

void
SimAuditor::checkCore(const Core &core) const
{
    std::string name = "core" + std::to_string(core.coreId);
    if (core.rob.size() > core.cfg.robSize)
        fail(name, "ROB occupancy " + std::to_string(core.rob.size()) +
                       " exceeds declared bound " +
                       std::to_string(core.cfg.robSize));
    if (core.fetchBuffer.size() > core.cfg.fetchBufferSize)
        fail(name, "fetch buffer occupancy " +
                       std::to_string(core.fetchBuffer.size()) +
                       " exceeds declared bound " +
                       std::to_string(core.cfg.fetchBufferSize));

    // Core::readDone finds an entry at its id's offset from the head,
    // and dependent dispatch reads a load's completion from its entry,
    // which holds only while ROB ids are consecutive and an entry is
    // done exactly when none of its loads is pending.
    std::uint64_t want_id = core.rob.empty() ? 0 : core.rob.front().id;
    for (const auto &e : core.rob) {
        if (e.id == 0 || e.id != want_id)
            fail(name, "ROB ids not consecutive: entry " +
                           std::to_string(e.id) + " where " +
                           std::to_string(want_id) + " belongs");
        ++want_id;
        if (!e.done && e.pendingLoads == 0)
            fail(name, "ROB entry " + std::to_string(e.id) +
                           " incomplete with no pending loads");
        if (e.done && e.pendingLoads > 0)
            fail(name, "ROB entry " + std::to_string(e.id) +
                           " done with " +
                           std::to_string(e.pendingLoads) +
                           " pending loads");
    }

    // Tick gate: a done head retires on the next tick, so the core
    // must not sleep past it.
    if (core.robHeadDone() && core.wakeCycle() > *clock + 1)
        fail(name, "ROB head done but the core sleeps until cycle " +
                       std::to_string(core.wakeCycle()) +
                       " (retirement would be skipped)");
    if (core.wakeCycle() > core.nextEventCycle())
        fail(name, "core sleeps until cycle " +
                       std::to_string(core.wakeCycle()) +
                       " but has work at cycle " +
                       std::to_string(core.nextEventCycle()) +
                       " (the cycle skip would jump past it)");
}

void
SimAuditor::checkTlb(const Tlb &tlb, const TranslationUnit &tu,
                     const std::string &label) const
{
    for (unsigned set = 0; set < tlb.sets; ++set) {
        std::size_t base = static_cast<std::size_t>(set) * tlb.ways;
        for (unsigned w = 0; w < tlb.ways; ++w) {
            Addr vpage = tlb.entries[base + w].vpage;
            if (vpage == kNoAddr)
                continue;
            if (tlb.index(vpage) != set)
                fail(label, "page " + std::to_string(vpage) +
                                " cached in foreign set " +
                                std::to_string(set));
            for (unsigned w2 = w + 1; w2 < tlb.ways; ++w2) {
                if (tlb.entries[base + w2].vpage == vpage)
                    fail(label, "duplicate page " +
                                    std::to_string(vpage) + " in set " +
                                    std::to_string(set));
            }
            // Agree with the page table: the mapping must be stable and
            // inside the 40-bit physical page domain.
            Addr ppage = tu.pageTable().translatePage(vpage);
            if (ppage != tu.pageTable().translatePage(vpage))
                fail(label, "page table translation unstable for page " +
                                std::to_string(vpage));
            if (ppage >> 40 != 0)
                fail(label, "translation of page " +
                                std::to_string(vpage) +
                                " escapes the physical domain");
        }
    }
}

void
SimAuditor::checkTranslation(const TranslationUnit &tu) const
{
    checkTlb(tu.dtlb(), tu, "dTLB");
    checkTlb(tu.stlb(), tu, "STLB");
}

} // namespace berti::verify
