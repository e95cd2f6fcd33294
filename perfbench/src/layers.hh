/**
 * @file
 * Layer tracing from outside the simulator: decorators around the
 * public seams of the trace, prefetch and memory-backend layers. Each
 * decorated call is a span timed with std::chrono::steady_clock. A
 * layer's self time is its spans' durations minus the nested spans
 * they contain, so work a layer call hands back to the machine (a
 * prefetcher's issuePrefetch into its cache, a DRAM completion into the
 * LLC's fill path) is not charged to that layer.
 *
 * Decorated objects keep private tallies and merge them into a shared
 * LayerSink when they are destroyed, so worker threads never contend
 * on the hot path.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "harness/experiment.hh"
#include "mem/backend.hh"
#include "prefetch/prefetcher.hh"
#include "trace/instr.hh"
#include "trace/registry.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
nsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::nano>(b - a).count();
}

/** Counts and self time of one prefetcher level. */
struct PrefetchTally
{
    std::uint64_t accessCalls = 0;
    std::uint64_t fillCalls = 0;
    std::uint64_t issueAttempts = 0;
    std::uint64_t issueAccepted = 0;
    double selfNs = 0.0;

    void add(const PrefetchTally &o);
};

/** Everything the decorators measure, summed over decorated objects. */
struct LayerTally
{
    // trace layer
    std::uint64_t nextCalls = 0;
    double traceSelfNs = 0.0;
    // prefetch layer
    PrefetchTally l1d;
    PrefetchTally l2;
    // memory backend
    std::uint64_t submitReadCalls = 0;
    std::uint64_t submitReadRefused = 0;
    std::uint64_t writebackCalls = 0;
    std::uint64_t tickCalls = 0;
    double dramSelfNs = 0.0;
    // generator lifetimes: make() to destruction
    std::uint64_t generators = 0;
    double generatorSpanNs = 0.0;

    void add(const LayerTally &o);
};

/** Thread-safe accumulator the decorators merge into. */
class LayerSink
{
  public:
    void merge(const LayerTally &t);
    LayerTally total() const;
    void reset();

  private:
    mutable std::mutex mutex;
    LayerTally sum;
};

/**
 * RAII span. With a non-null `self`, the span's duration minus the
 * time of spans nested inside it is added to *self. A null `self`
 * marks machine work called from inside a layer: it charges nothing
 * itself but is still subtracted from the enclosing layer span.
 */
class Span
{
  public:
    explicit Span(double *self);
    ~Span();

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    double *self;
    double *parent;
    double child = 0.0;
    Clock::time_point start;
};

/** TraceGenerator decorator: times next() and the generator's life. */
class TracedGen final : public berti::TraceGenerator
{
  public:
    TracedGen(std::unique_ptr<berti::TraceGenerator> inner, LayerSink *sink);
    ~TracedGen() override;

    berti::TraceInstr next() override;

  private:
    std::unique_ptr<berti::TraceGenerator> inner;
    LayerSink *sink;
    LayerTally tally;
    Clock::time_point born;
};

/**
 * Prefetcher + PrefetchPort decorator, after oracle::TeePrefetcher: the
 * cache calls the hooks on the decorator, and the inner prefetcher
 * issues through it. Everything that shapes metric names and
 * configuration fingerprints (name, registerMetrics, checkpoint hooks,
 * storage) is forwarded unchanged.
 */
class TracedPrefetcher final : public berti::Prefetcher,
                               public berti::PrefetchPort
{
  public:
    TracedPrefetcher(std::unique_ptr<berti::Prefetcher> inner,
                     LayerSink *sink, bool l2);
    ~TracedPrefetcher() override;

    void onAccess(const AccessInfo &info) override;
    void onFill(const FillInfo &info) override;
    void tick() override;
    std::uint64_t storageBits() const override;
    std::string name() const override;
    void registerMetrics(berti::obs::MetricsRegistry &registry,
                         const std::string &prefix) override;
    std::string debugState() const override;
    bool checkpointSupported() const override;
    void saveState(berti::sim::ByteWriter &w) const override;
    void loadState(berti::sim::ByteReader &r) override;

    bool issuePrefetch(berti::Addr line_addr,
                       berti::FillLevel level) override;
    double mshrOccupancy() const override;
    berti::Cycle now() const override;

  private:
    void bindInner();

    std::unique_ptr<berti::Prefetcher> inner;
    LayerSink *sink;
    bool l2;
    bool innerBound = false;
    PrefetchTally tally;
};

/**
 * mem::MemBackend decorator. Read completions are routed through a
 * per-client proxy so the LLC's fill path they trigger is timed as
 * nested machine work, not as DRAM self time.
 */
class TracedBackend final : public berti::mem::MemBackend
{
  public:
    TracedBackend(std::unique_ptr<berti::mem::MemBackend> inner,
                  LayerSink *sink);
    ~TracedBackend() override;

    bool submitRead(berti::MemRequest req) override;
    void submitWriteback(berti::Addr p_line) override;
    void tick() override;
    berti::Cycle nextEventCycle() const override;
    berti::DramStats statsSnapshot() const override;
    std::size_t pendingReads() const override;
    std::size_t rqOccupancy() const override;
    std::size_t wqOccupancy() const override;
    void setFaultInjector(berti::verify::FaultInjector *injector) override;
    void registerMetrics(berti::obs::MetricsRegistry &registry,
                         const std::string &prefix) override;
    void saveState(berti::sim::ByteWriter &w,
                   const berti::sim::PtrMap &clients) const override;
    void loadState(berti::sim::ByteReader &r,
                   const berti::sim::PtrMap &clients) override;
    bool checkpointSupported() const override;
    std::string auditViolation() const override;
    std::string name() const override;

  private:
    class ClientProxy;

    berti::ReadClient *proxyFor(berti::ReadClient *client) const;
    berti::sim::PtrMap withProxies(const berti::sim::PtrMap &clients) const;

    std::unique_ptr<berti::mem::MemBackend> inner;
    LayerSink *sink;
    LayerTally tally;
    mutable std::vector<std::unique_ptr<ClientProxy>> proxies;
};

/** Wrap a workload so every generator it makes is a TracedGen. */
berti::Workload tracedWorkload(const berti::Workload &w, LayerSink *sink);

/**
 * Wrap a spec's factories in TracedPrefetcher. A null factory (no
 * prefetcher) stays null, so those caches keep the NoPrefetcher hook
 * skip. The spec name is unchanged.
 */
berti::PrefetcherSpec tracedSpec(const berti::PrefetcherSpec &spec,
                                 LayerSink *sink);

/** Build the memory backend as Machine does, wrapped in TracedBackend. */
berti::MemBackendFactory tracedBackendFactory(const berti::MachineConfig &cfg,
                                              LayerSink *sink);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
