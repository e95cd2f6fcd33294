#include "layers.hh"

#include "mem/backend_registry.hh"
#include "mem/request.hh"
#include "prefetch/registry.hh"
#include "sim/serialize.hh"
#include "verify/sim_error.hh"

namespace perfbench
{

using namespace berti;

namespace
{

/** Accumulator of the innermost open span on this thread. */
thread_local double *openSpanChild = nullptr;

} // namespace

void
PrefetchTally::add(const PrefetchTally &o)
{
    accessCalls += o.accessCalls;
    fillCalls += o.fillCalls;
    issueAttempts += o.issueAttempts;
    issueAccepted += o.issueAccepted;
    selfNs += o.selfNs;
}

void
LayerTally::add(const LayerTally &o)
{
    nextCalls += o.nextCalls;
    traceSelfNs += o.traceSelfNs;
    l1d.add(o.l1d);
    l2.add(o.l2);
    submitReadCalls += o.submitReadCalls;
    submitReadRefused += o.submitReadRefused;
    writebackCalls += o.writebackCalls;
    tickCalls += o.tickCalls;
    dramSelfNs += o.dramSelfNs;
    generators += o.generators;
    generatorSpanNs += o.generatorSpanNs;
}

void
LayerSink::merge(const LayerTally &t)
{
    std::lock_guard<std::mutex> lock(mutex);
    sum.add(t);
}

LayerTally
LayerSink::total() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return sum;
}

void
LayerSink::reset()
{
    std::lock_guard<std::mutex> lock(mutex);
    sum = LayerTally{};
}

Span::Span(double *self_ns) : self(self_ns), parent(openSpanChild)
{
    openSpanChild = &child;
    start = Clock::now();
}

Span::~Span()
{
    double dur = nsBetween(start, Clock::now());
    openSpanChild = parent;
    if (self)
        *self += dur - child;
    if (parent)
        *parent += dur;
}

// ------------------------------------------------------------ TracedGen

TracedGen::TracedGen(std::unique_ptr<TraceGenerator> inner_gen,
                     LayerSink *sink_)
    : inner(std::move(inner_gen)), sink(sink_), born(Clock::now())
{
}

TracedGen::~TracedGen()
{
    tally.generators = 1;
    tally.generatorSpanNs = nsBetween(born, Clock::now());
    sink->merge(tally);
}

TraceInstr
TracedGen::next()
{
    ++tally.nextCalls;
    Span span(&tally.traceSelfNs);
    return inner->next();
}

// ----------------------------------------------------- TracedPrefetcher

TracedPrefetcher::TracedPrefetcher(std::unique_ptr<Prefetcher> inner_pf,
                                   LayerSink *sink_, bool at_l2)
    : inner(std::move(inner_pf)), sink(sink_), l2(at_l2)
{
}

TracedPrefetcher::~TracedPrefetcher()
{
    LayerTally t;
    (l2 ? t.l2 : t.l1d) = tally;
    sink->merge(t);
}

void
TracedPrefetcher::bindInner()
{
    // Prefetcher::bind is non-virtual and runs on the decorator, so the
    // inner prefetcher is pointed at the decorator on first use (as
    // oracle::TeePrefetcher does).
    if (!innerBound) {
        inner->bind(this);
        innerBound = true;
    }
}

void
TracedPrefetcher::onAccess(const AccessInfo &info)
{
    bindInner();
    ++tally.accessCalls;
    Span span(&tally.selfNs);
    inner->onAccess(info);
}

void
TracedPrefetcher::onFill(const FillInfo &info)
{
    bindInner();
    ++tally.fillCalls;
    Span span(&tally.selfNs);
    inner->onFill(info);
}

void
TracedPrefetcher::tick()
{
    // Forwarded untimed: no prefetcher these workloads run does work in
    // tick(), and a span per cycle would dominate the traced run.
    bindInner();
    inner->tick();
}

std::uint64_t
TracedPrefetcher::storageBits() const
{
    return inner->storageBits();
}

std::string
TracedPrefetcher::name() const
{
    return inner->name();
}

void
TracedPrefetcher::registerMetrics(obs::MetricsRegistry &registry,
                                  const std::string &prefix)
{
    inner->registerMetrics(registry, prefix);
}

std::string
TracedPrefetcher::debugState() const
{
    return inner->debugState();
}

bool
TracedPrefetcher::checkpointSupported() const
{
    return inner->checkpointSupported();
}

void
TracedPrefetcher::saveState(sim::ByteWriter &w) const
{
    inner->saveState(w);
}

void
TracedPrefetcher::loadState(sim::ByteReader &r)
{
    bindInner();
    inner->loadState(r);
}

bool
TracedPrefetcher::issuePrefetch(Addr line_addr, FillLevel level)
{
    ++tally.issueAttempts;
    bool accepted;
    {
        Span machine_work(nullptr);
        accepted = port->issuePrefetch(line_addr, level);
    }
    if (accepted)
        ++tally.issueAccepted;
    return accepted;
}

double
TracedPrefetcher::mshrOccupancy() const
{
    return port->mshrOccupancy();
}

Cycle
TracedPrefetcher::now() const
{
    return port->now();
}

// -------------------------------------------------------- TracedBackend

/** Forwards a read completion to the real client as nested machine
 *  work, so the fill path it triggers is not DRAM self time. */
class TracedBackend::ClientProxy final : public ReadClient
{
  public:
    explicit ClientProxy(ReadClient *target_) : target(target_) {}

    void
    readDone(const MemRequest &req) override
    {
        MemRequest orig = req;
        orig.client = target;
        Span machine_work(nullptr);
        target->readDone(orig);
    }

    ReadClient *const target;
};

TracedBackend::TracedBackend(std::unique_ptr<mem::MemBackend> inner_be,
                             LayerSink *sink_)
    : inner(std::move(inner_be)), sink(sink_)
{
}

TracedBackend::~TracedBackend()
{
    sink->merge(tally);
}

ReadClient *
TracedBackend::proxyFor(ReadClient *client) const
{
    if (!client)
        return nullptr;
    for (const auto &p : proxies) {
        if (p->target == client)
            return p.get();
    }
    proxies.push_back(std::make_unique<ClientProxy>(client));
    return proxies.back().get();
}

sim::PtrMap
TracedBackend::withProxies(const sim::PtrMap &clients) const
{
    // Requests inside the inner backend carry proxy pointers. Give each
    // registered client's proxy an id after the machine's own ones, in
    // id order, so a traced machine's checkpoint restores into another
    // traced machine.
    std::vector<ReadClient *> registered;
    for (std::uint32_t id = 1;; ++id) {
        try {
            registered.push_back(static_cast<ReadClient *>(clients.at(id)));
        } catch (const verify::SimError &) {
            break;
        }
    }
    sim::PtrMap ext = clients;
    for (ReadClient *c : registered)
        ext.add(proxyFor(c));
    return ext;
}

bool
TracedBackend::submitRead(MemRequest req)
{
    ++tally.submitReadCalls;
    req.client = proxyFor(req.client);
    bool accepted;
    {
        Span span(&tally.dramSelfNs);
        accepted = inner->submitRead(req);
    }
    if (!accepted)
        ++tally.submitReadRefused;
    return accepted;
}

void
TracedBackend::submitWriteback(Addr p_line)
{
    ++tally.writebackCalls;
    Span span(&tally.dramSelfNs);
    inner->submitWriteback(p_line);
}

void
TracedBackend::tick()
{
    ++tally.tickCalls;
    Span span(&tally.dramSelfNs);
    inner->tick();
}

Cycle
TracedBackend::nextEventCycle() const
{
    return inner->nextEventCycle();
}

DramStats
TracedBackend::statsSnapshot() const
{
    return inner->statsSnapshot();
}

std::size_t
TracedBackend::pendingReads() const
{
    return inner->pendingReads();
}

std::size_t
TracedBackend::rqOccupancy() const
{
    return inner->rqOccupancy();
}

std::size_t
TracedBackend::wqOccupancy() const
{
    return inner->wqOccupancy();
}

void
TracedBackend::setFaultInjector(verify::FaultInjector *injector)
{
    inner->setFaultInjector(injector);
}

void
TracedBackend::registerMetrics(obs::MetricsRegistry &registry,
                               const std::string &prefix)
{
    inner->registerMetrics(registry, prefix);
}

void
TracedBackend::saveState(sim::ByteWriter &w,
                         const sim::PtrMap &clients) const
{
    inner->saveState(w, withProxies(clients));
}

void
TracedBackend::loadState(sim::ByteReader &r, const sim::PtrMap &clients)
{
    inner->loadState(r, withProxies(clients));
}

bool
TracedBackend::checkpointSupported() const
{
    return inner->checkpointSupported();
}

std::string
TracedBackend::auditViolation() const
{
    return inner->auditViolation();
}

std::string
TracedBackend::name() const
{
    return inner->name();
}

// ------------------------------------------------------------- wiring

Workload
tracedWorkload(const Workload &w, LayerSink *sink)
{
    Workload out = w;
    out.make = [make = w.make, sink] {
        return std::unique_ptr<TraceGenerator>(
            std::make_unique<TracedGen>(make(), sink));
    };
    return out;
}

PrefetcherSpec
tracedSpec(const PrefetcherSpec &spec, LayerSink *sink)
{
    PrefetcherSpec out = spec;
    auto wrap = [sink](const PrefetcherFactory &f, bool l2) {
        return prefetch::decorate(
            f, [sink, l2](std::unique_ptr<Prefetcher> pf) {
                return std::unique_ptr<Prefetcher>(
                    std::make_unique<TracedPrefetcher>(std::move(pf), sink,
                                                       l2));
            });
    };
    out.l1d = wrap(spec.l1d, false);
    out.l2 = wrap(spec.l2, true);
    return out;
}

MemBackendFactory
tracedBackendFactory(const MachineConfig &cfg, LayerSink *sink)
{
    return [sel = cfg.memBackend, channel = cfg.dram,
            sink](const Cycle *clock) {
        return std::unique_ptr<mem::MemBackend>(
            std::make_unique<TracedBackend>(
                mem::makeMemBackend(sel, channel, clock), sink));
    };
}

} // namespace perfbench
