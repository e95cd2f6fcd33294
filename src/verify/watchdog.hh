/**
 * @file
 * Forward-progress watchdog. Machine::run() feeds it one observation
 * per core per cycle (retired-instruction count + ROB head identity);
 * when a core's ROB head has been stuck, and nothing has retired, for
 * longer than the configured threshold, the watchdog reports the core
 * as wedged. The machine then dumps a structured diagnostic (queue
 * occupancies, in-flight MSHRs with ages, prefetcher state) and throws
 * SimError(ErrorKind::Watchdog) instead of spinning until the hard
 * cycle bound: a deadlocked simulation fails loudly in bounded time.
 */

#ifndef BERTI_VERIFY_WATCHDOG_HH
#define BERTI_VERIFY_WATCHDOG_HH

#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace berti::verify
{

struct WatchdogConfig
{
    bool enabled = true;

    /**
     * Cycles a ROB head may stay put with zero retirement before the
     * core counts as wedged. The deepest legitimate stall — a dependent
     * load chain serialised behind a DRAM-queue backlog — resolves in a
     * few thousand cycles on the Table II machine, so the default has
     * ample margin while still firing long before Machine::run()'s
     * hard cycle bound.
     */
    Cycle stallCycles = 100000;
};

class ProgressWatchdog
{
  public:
    ProgressWatchdog(const WatchdogConfig &cfg, const Cycle *clock);

    /** Forget all history and size the per-core trackers. */
    void reset(unsigned cores);

    /**
     * One per-cycle observation of a core. A core makes progress when
     * it retires an instruction or its ROB head changes. An ROB that
     * stays empty is NOT progress: a wedged front-end (a swallowed
     * instruction-fetch fill) drains the ROB and parks it empty, which
     * is precisely the hang this watchdog exists to catch. Returns
     * whether the observation recorded progress (which can move
     * nextDeadline()); observing unchanged values changes nothing.
     */
    bool observe(unsigned core, std::uint64_t retired,
                 std::uint64_t rob_head_id);

    /** Index of the first wedged core, or -1 when all progress. */
    int stalledCore() const;

    /** Cycles since the given core last made progress. */
    Cycle stalledFor(unsigned core) const;

    /**
     * Earliest cycle at which any core could newly count as wedged if
     * nothing progresses. Quiescence cycle-skip bound: skipping past it
     * would delay (or even cycle-shift) a watchdog failure, changing
     * observable behavior. kNever when untracked or disabled.
     */
    Cycle nextDeadline() const;

    bool enabled() const { return cfg.enabled; }
    Cycle threshold() const { return cfg.stallCycles; }

  private:
    struct Track
    {
        std::uint64_t retired = 0;
        std::uint64_t headId = 0;
        Cycle lastProgress = 0;
    };

    WatchdogConfig cfg;
    const Cycle *clock;
    std::vector<Track> tracks;
};

} // namespace berti::verify

#endif // BERTI_VERIFY_WATCHDOG_HH
