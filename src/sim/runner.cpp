#include "sim/runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "obs/stats.hpp"
#include "sim/result_cache.hpp"
#include "sim/scheduler.hpp"
#include "sim/spec_io.hpp"
#include "store/result_store.hpp"
#include "util/logging.hpp"
#include "util/parse.hpp"
#include "util/rng.hpp"

namespace coolair {
namespace sim {

bool
SweepOutcome::ok(size_t index) const
{
    for (const auto &failure : failures)
        if (failure.index == index)
            return false;
    return true;
}

size_t
SweepOutcome::cacheHits() const
{
    size_t hits = 0;
    for (uint8_t served : fromCache)
        hits += served;
    return hits;
}

ExperimentRunner::ExperimentRunner(const RunnerConfig &config)
    : _config(config), _threads(resolveThreads(config.threads))
{
}

int
ExperimentRunner::resolveThreads(int requested)
{
    if (requested > 0)
        return requested;
    // Strict: COOLAIR_THREADS=8x must not silently run 8 threads; a
    // malformed or negative value warns and falls back to auto (0).
    int n = util::envInt("COOLAIR_THREADS", 0, 0, 4096);
    if (n > 0)
        return n;
    unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? int(hw) : 1;
}

uint64_t
ExperimentRunner::deriveSeed(uint64_t root_seed, size_t index,
                             const std::string &name)
{
    util::Rng stream(root_seed, name + "#" + std::to_string(index));
    return stream.next();
}

namespace {

/** A thread-safe "one more job done" callback that logs a progress line
    (RunnerConfig::progress) every progressEvery jobs and at the end. */
std::function<void()>
progressTicker(const RunnerConfig &config, size_t total)
{
    if (!config.progress)
        return [] {};
    auto done = std::make_shared<std::atomic<size_t>>(0);
    const auto start = std::chrono::steady_clock::now();
    return [&config, total, done, start] {
        const size_t finished = done->fetch_add(1) + 1;
        if (finished % std::max<size_t>(1, config.progressEvery) != 0 &&
            finished != total)
            return;
        const double elapsed = std::chrono::duration<double>(
                                   std::chrono::steady_clock::now() - start)
                                   .count();
        const double rate = elapsed > 0.0 ? double(finished) / elapsed : 0.0;
        const double eta = rate > 0.0 ? double(total - finished) / rate : 0.0;
        char line[192];
        std::snprintf(line, sizeof(line),
                      "%zu/%zu %s done (%.1f jobs/s, ETA %.0f s)", finished,
                      total, config.progressLabel.c_str(), rate, eta);
        util::inform(line);
    };
}

} // anonymous namespace

std::vector<TaskFailure>
ExperimentRunner::forEach(size_t count,
                          const std::function<void(size_t)> &fn) const
{
    std::vector<TaskFailure> failures;
    if (count == 0)
        return failures;

    const std::function<void()> progress = progressTicker(_config, count);
    std::mutex failures_mutex;
    {
        JobPool pool(int(std::min(size_t(_threads), count)));
        for (size_t i = 0; i < count; ++i)
            pool.submit([&, i] {
                std::string error;
                const bool failed = threw(error, [&] { fn(i); });
                progress();
                if (failed) {
                    std::lock_guard<std::mutex> lock(failures_mutex);
                    failures.push_back({i, std::move(error)});
                }
                return !failed;
            });
    }  // the pool drains here

    std::sort(failures.begin(), failures.end(),
              [](const TaskFailure &a, const TaskFailure &b) {
                  return a.index < b.index;
              });
    return failures;
}

SweepOutcome
ExperimentRunner::run(const std::vector<ExperimentSpec> &specs) const
{
    SweepOutcome outcome;
    outcome.results.resize(specs.size());
    outcome.fromCache.assign(specs.size(), 0);
    if (specs.empty())
        return outcome;

    // One open store per distinct cache directory, shared by the
    // sweep's jobs (stores are thread-safe); a std::map keeps the
    // sweep-end stats publication deterministic.
    std::map<std::string, store::ResultStore> stores;
    const std::function<void()> progress =
        progressTicker(_config, specs.size());
    std::vector<Scheduler::JobPtr> jobs;
    jobs.reserve(specs.size());
    {
        Scheduler::Config config;
        config.threads = int(std::min(size_t(_threads), specs.size()));
        config.onComplete = [&progress](Scheduler::Job &) { progress(); };
        Scheduler scheduler(std::move(config));
        for (size_t i = 0; i < specs.size(); ++i) {
            Scheduler::Request request;
            request.spec = specs[i];
            request.key = std::to_string(i);
            request.lanes = std::max(0, specs[i].batch);
            if (resultCacheUsable(specs[i])) {
                const std::string &dir = specs[i].cacheDirPath;
                request.store = &stores
                                     .try_emplace(dir, dir, kResultCacheSalt,
                                                  kResultFormatVersion)
                                     .first->second;
                request.id = resultCacheId(specs[i]);
            }
            jobs.push_back(scheduler.submit(std::move(request)).job);
        }
        scheduler.flush();
        for (const Scheduler::JobPtr &job : jobs)
            scheduler.wait(*job);
    }

    for (size_t i = 0; i < specs.size(); ++i) {
        Scheduler::Job &job = *jobs[i];
        if (!job.ok) {
            outcome.failures.push_back({i, specs[i], std::move(job.error)});
            continue;
        }
        outcome.results[i] = std::move(job.result);
        outcome.fromCache[i] = job.fromCache;
    }

    // Publish each store's counters globally exactly once, at sweep
    // end (per-run reports got them via report-stats sources, which
    // never touch the global registry).
    if (obs::enabled())
        for (auto &[dir, st] : stores)
            st.addStats(obs::registry());

    return outcome;
}

} // namespace sim
} // namespace coolair
