/**
 * @file
 * Figures 2 and 4 (didactic): strides vs local deltas vs *timely* local
 * deltas. Replays the paper's exact example — one IP touching lines
 * 2, 5, 7, 10, 12, 15 — against a Berti instance with a controlled
 * fetch latency, and prints which deltas were learned as timely at
 * each step.
 */

#include <iostream>

#include "core/berti.hh"
#include "harness/table.hh"

namespace
{

struct Port : berti::PrefetchPort
{
    berti::Cycle t = 0;

    bool issuePrefetch(berti::Addr, berti::FillLevel) override
    {
        return true;
    }
    double mshrOccupancy() const override { return 0.0; }
    berti::Cycle now() const override { return t; }
};

} // namespace

int
main()
{
    using namespace berti;

    BertiPrefetcher b;
    Port port;
    b.bind(&port);

    const Cycle latency = 60;
    const Addr ip = 0x401cb0;
    struct Event
    {
        Addr line;
        Cycle access;
    };
    const Event events[] = {{2, 100}, {5, 130}, {7, 150},
                            {10, 165}, {12, 175}, {15, 200}};

    std::cout << "Figure 2/4: timely local deltas for the access "
                 "sequence 2, 5, 7, 10, 12, 15 (fetch latency "
              << latency << " cycles)\n\n";
    TextTable t({"access", "time", "strides-so-far",
                 "timely deltas found at fill"});

    Addr prev = 0;
    bool have_prev = false;
    for (const Event &e : events) {
        std::uint64_t before = b.timelyDeltasFound;

        port.t = e.access;
        Prefetcher::AccessInfo a;
        a.ip = ip;
        a.vLine = e.line;
        a.pLine = e.line;
        a.hit = false;
        b.onAccess(a);

        port.t = e.access + latency;
        Prefetcher::FillInfo f;
        f.ip = ip;
        f.vLine = e.line;
        f.pLine = e.line;
        f.hadDemandWaiter = true;
        f.latency = latency;
        b.onFill(f);

        std::string stride = "-";
        if (have_prev) {
            stride = "+";
            stride += std::to_string(e.line - prev);
        }
        t.addRow({std::to_string(e.line), std::to_string(e.access),
                  stride,
                  std::to_string(b.timelyDeltasFound - before) +
                      " new timely"});
        prev = e.line;
        have_prev = true;
    }
    t.print(std::cout);

    std::cout << "\nLearned delta table for the IP (coverage is per "
                 "current phase):\n";
    TextTable d({"delta", "coverage", "status"});
    for (const auto &info : b.deltasFor(ip)) {
        const char *status = "no-pref";
        switch (info.status) {
          case BertiPrefetcher::DeltaStatus::L1Pref:
            status = "L1";
            break;
          case BertiPrefetcher::DeltaStatus::L2Pref:
          case BertiPrefetcher::DeltaStatus::L2PrefRepl:
            status = "L2";
            break;
          default:
            break;
        }
        std::string delta = info.delta > 0 ? "+" : "";
        delta += std::to_string(info.delta);
        d.addRow({delta, std::to_string(info.coverage), status});
    }
    d.print(std::cout);
    std::cout << "\nAs in the paper: +10 is seen twice (from 2->12 and "
                 "5->15), +13 once; short deltas like +3 are local but "
                 "never timely.\n";
    return 0;
}
