#include "harness/parallel.hh"

#include <atomic>
#include <cstdio>
#include <exception>
#include <mutex>
#include <thread>

#include "sim/options.hh"
#include "verify/sim_error.hh"

namespace berti
{

unsigned
parallelJobCount()
{
    unsigned jobs = sim::SimOptions::fromEnv().jobs;
    if (jobs)
        return jobs;
    unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

void
forEachIndexParallel(std::size_t total,
                     const std::function<void(std::size_t)> &fn,
                     unsigned jobs, const ProgressFn &progress)
{
    if (total == 0)
        return;

    unsigned pool = jobs ? jobs : parallelJobCount();
    if (pool > total)
        pool = static_cast<unsigned>(total);

    // One slot per job: workers never touch each other's slots, and the
    // post-join scan rethrows the lowest-index failure so error identity
    // does not depend on the schedule.
    std::vector<std::exception_ptr> failures(total);

    if (pool <= 1) {
        for (std::size_t i = 0; i < total; ++i) {
            try {
                fn(i);
            } catch (...) {
                failures[i] = std::current_exception();
            }
            if (progress)
                progress(i + 1, total);
        }
    } else {
        std::atomic<std::size_t> next{0};
        std::mutex progress_mutex;
        std::size_t done = 0;

        auto worker = [&] {
            for (;;) {
                std::size_t i = next.fetch_add(1);
                if (i >= total)
                    return;
                try {
                    fn(i);
                } catch (...) {
                    failures[i] = std::current_exception();
                }
                if (progress) {
                    std::lock_guard<std::mutex> lock(progress_mutex);
                    progress(++done, total);
                }
            }
        };

        std::vector<std::thread> threads;
        threads.reserve(pool);
        for (unsigned t = 0; t < pool; ++t)
            threads.emplace_back(worker);
        for (auto &t : threads)
            t.join();
    }

    for (std::size_t i = 0; i < total; ++i) {
        if (failures[i])
            std::rethrow_exception(failures[i]);
    }
}

ProgressFn
stderrProgress(std::string label)
{
    return [label = std::move(label)](std::size_t done, std::size_t total) {
        std::fprintf(stderr, "\r[bench] %-24s %3zu/%zu", label.c_str(),
                     done, total);
        if (done == total)
            std::fprintf(stderr, "\n");
        std::fflush(stderr);
    };
}

} // namespace berti
