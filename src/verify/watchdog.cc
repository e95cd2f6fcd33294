#include "verify/watchdog.hh"

#include <algorithm>

namespace berti::verify
{

ProgressWatchdog::ProgressWatchdog(const WatchdogConfig &config,
                                   const Cycle *clock_ptr)
    : cfg(config), clock(clock_ptr)
{}

void
ProgressWatchdog::reset(unsigned cores)
{
    tracks.assign(cores, Track{});
    for (auto &t : tracks)
        t.lastProgress = *clock;
}

bool
ProgressWatchdog::observe(unsigned core, std::uint64_t retired,
                          std::uint64_t rob_head_id)
{
    if (core >= tracks.size())
        return false;
    Track &t = tracks[core];
    if (retired == t.retired && rob_head_id == t.headId)
        return false;
    t.retired = retired;
    t.headId = rob_head_id;
    t.lastProgress = *clock;
    return true;
}

int
ProgressWatchdog::stalledCore() const
{
    if (!cfg.enabled)
        return -1;
    for (std::size_t c = 0; c < tracks.size(); ++c) {
        if (*clock - tracks[c].lastProgress > cfg.stallCycles)
            return static_cast<int>(c);
    }
    return -1;
}

Cycle
ProgressWatchdog::stalledFor(unsigned core) const
{
    if (core >= tracks.size())
        return 0;
    return *clock - tracks[core].lastProgress;
}

Cycle
ProgressWatchdog::nextDeadline() const
{
    if (!cfg.enabled || tracks.empty())
        return kNever;
    Cycle oldest = kNever;
    for (const Track &t : tracks)
        oldest = std::min(oldest, t.lastProgress);
    // stalledCore fires when *clock - lastProgress > stallCycles, i.e.
    // first at lastProgress + stallCycles + 1.
    return oldest + cfg.stallCycles + 1;
}

} // namespace berti::verify
