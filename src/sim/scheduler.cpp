#include "sim/scheduler.hpp"

#include <algorithm>

#include "obs/trace.hpp"
#include "sim/batch_engine.hpp"
#include "sim/result_cache.hpp"
#include "sim/runner.hpp"
#include "sim/spec_io.hpp"
#include "util/logging.hpp"

namespace coolair {
namespace sim {

namespace {

/** serve.lane_fill bucket bounds: how full dispatched batches were.
    Small counts exact, larger ones coarsening — lane targets past 32
    are off the efficiency curve anyway (DESIGN.md §10). */
const std::vector<double> &
laneFillBuckets()
{
    static const std::vector<double> bounds{1,  2,  3,  4,  6,
                                            8,  12, 16, 24, 32};
    return bounds;
}

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

} // anonymous namespace

// ---------------------------------------------------------------------------
// JobPool
// ---------------------------------------------------------------------------

JobPool::JobPool(int threads)
{
    const int n = ExperimentRunner::resolveThreads(threads);
    _workers.reserve(size_t(n));
    for (int t = 0; t < n; ++t)
        _workers.emplace_back(&JobPool::workerLoop, this, t);
}

JobPool::~JobPool()
{
    {
        std::lock_guard<std::mutex> lock(_mutex);
        _stopping = true;
    }
    _wake.notify_all();
    for (auto &worker : _workers)
        worker.join();
}

void
JobPool::submit(std::function<bool()> job)
{
    {
        std::lock_guard<std::mutex> lock(_mutex);
        _queue.push_back({std::move(job), std::chrono::steady_clock::now(),
                          obs::currentTraceId()});
    }
    _wake.notify_one();
}

size_t
JobPool::pending() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _queue.size() + _running;
}

void
JobPool::workerLoop(int slot)
{
    // A named track per pool worker, so exported traces show which
    // worker ran each job.
    obs::Tracer::instance().nameTrack(obs::threadTrack(),
                                      "pool worker " + std::to_string(slot));
    for (;;) {
        Queued next;
        {
            std::unique_lock<std::mutex> lock(_mutex);
            _wake.wait(lock,
                       [this] { return _stopping || !_queue.empty(); });
            if (_queue.empty())
                return;
            next = std::move(_queue.front());
            _queue.pop_front();
            ++_running;
        }

        const auto start = std::chrono::steady_clock::now();
        bool ok = false;
        std::string error;
        {
            // The submitter's trace context: spans the job records
            // (serve.run, the engine's) join the request's trace.
            obs::TraceContextScope scope(next.traceId);
            if (threw(error, [&] { ok = next.job(); }))
                util::warn("JobPool: job threw: " + error);
        }
        if (obs::enabled()) {
            obs::StatsRegistry &reg = obs::registry();
            reg.counter("runner.jobs", "jobs completed").inc();
            if (!ok)
                reg.counter("runner.job_failures", "jobs that threw").inc();
            reg.histogram("runner.job_seconds", "per-job wall time [s]",
                          obs::kWallClock)
                .record(secondsSince(start));
            reg.histogram("runner.queue_wait_seconds",
                          "delay from submit to job start [s]",
                          obs::kWallClock)
                .record(std::chrono::duration<double>(start - next.queued)
                            .count());
        }

        std::lock_guard<std::mutex> lock(_mutex);
        --_running;
    }
}

// ---------------------------------------------------------------------------
// Scheduler
// ---------------------------------------------------------------------------

const std::string &
Scheduler::Job::text()
{
    if (payload.empty())
        payload = formatResult(result);
    return payload;
}

Scheduler::Scheduler(Config config)
    : _config(std::move(config)),
      _stats(_config.stats ? *_config.stats : _ownStats),
      _storeHits(_stats.counter("serve.store_hits",
                                "submissions served from the result store")),
      _dedupHits(_stats.counter(
          "serve.dedup_hits",
          "submissions that joined an in-flight identical run")),
      _runs(_stats.counter("serve.runs", "simulations actually run")),
      _runFailures(
          _stats.counter("serve.run_failures", "simulations that threw")),
      _coalesced(_stats.counter(
          "serve.coalesced",
          "cold submissions parked for cross-request batching")),
      _fullDispatches(_stats.counter(
          "serve.coalesce_full_dispatches",
          "batches dispatched because the lane target filled",
          obs::kWallClock)),
      _partialDispatches(_stats.counter(
          "serve.coalesce_partial_dispatches",
          "batches dispatched on collection-window expiry",
          obs::kWallClock)),
      _parkedGauge(_stats.gauge(
          "serve.parked", "submissions currently parked for coalescing",
          obs::kWallClock)),
      _laneFill(_stats.histogram("serve.lane_fill",
                                 "lanes per dispatched batch",
                                 obs::kWallClock, laneFillBuckets())),
      _pool(_config.threads)
{
    if (_config.coalesceWaitMs >= 0.0)
        _collector = std::thread([this] { collectorLoop(); });
}

Scheduler::~Scheduler()
{
    // Stop the window collector, then dispatch what is still parked;
    // the pool (the last member) runs every queued job before joining.
    if (_collector.joinable()) {
        {
            std::lock_guard<std::mutex> lock(_mutex);
            _stopCollector = true;
        }
        _collectorWake.notify_all();
        _collector.join();
    }
    flush();
}

Scheduler::Admission
Scheduler::submit(Request request)
{
    Admission admission;
    JobPtr job;
    bool fresh = false;
    {
        std::lock_guard<std::mutex> lock(_mutex);
        auto it = _inflight.find(request.key);
        if (it != _inflight.end()) {
            job = it->second;
            _dedupHits.inc();
        } else if (_config.maxInflight > 0 &&
                   _inflight.size() >= _config.maxInflight) {
            return admission;  // joins (above) add no work: never refused
        } else {
            job = std::make_shared<Job>();
            job->submitted = std::chrono::steady_clock::now();
            job->traceId = obs::currentTraceId();
            _inflight.emplace(request.key, job);
            job->request = std::move(request);
            fresh = true;
        }
        admission.tag = _nextTag++;
        job->tags.push_back(admission.tag);
    }
    admission.job = job;

    // A concurrent identical submission meanwhile joins the in-flight
    // entry and shares whatever this resolves to.
    if (fresh && !lookup(*job)) {
        if (job->request.lanes > 0) {
            park(job);
        } else {
            prewarmSharedState({job->request.spec});
            _pool.submit([this, job] { return run({job}, 0); });
        }
    }
    return admission;
}

bool
Scheduler::lookup(Job &job)
{
    const Request &req = job.request;
    // Hot tier first: a repeat answers from RAM with the exact bytes a
    // previous completion cached — no disk open, no CRC pass.
    if (_config.hot && _config.hot->lookup(req.id, job.payload)) {
        job.ok = job.fromCache = true;
        finish(job, /*cacheHot=*/false);
        return true;
    }
    const auto t0 = std::chrono::steady_clock::now();
    bool hit = false;
    {
        obs::Span span("serve.store_lookup", "serve");
        hit = req.store && cacheLookup(*req.store, req.id, job.result);
    }
    if (!hit)
        return false;
    _storeHits.inc();
    // A served result whose report cannot be written is a failed
    // request.
    job.ok = job.fromCache =
        req.spec.reportJsonPath.empty() || !threw(job.error, [&] {
            writeCacheHitReport(req.spec, job.result, *req.store,
                                secondsSince(t0));
        });
    finish(job);
    return true;
}

void
Scheduler::park(const JobPtr &job)
{
    // The shape key formats the whole spec: once per admission, before
    // the queue lock.
    const std::string shape = batchShapeKey(job->request.spec);
    job->parkUs = obs::Tracer::instance().nowUs();
    _coalesced.inc();
    LaneQueue ready;
    {
        std::lock_guard<std::mutex> lock(_mutex);
        auto it = _parked.try_emplace(shape).first;
        LaneQueue &queue = it->second;
        if (queue.jobs.empty())
            queue.oldest = std::chrono::steady_clock::now();
        queue.jobs.push_back(job);
        ++_parkedCount;
        if (int(queue.jobs.size()) >= job->request.lanes) {
            // Lane target reached: extract under the lock, dispatch
            // outside it.  A late same-shape arrival starts a new queue.
            ready = std::move(queue);
            _parked.erase(it);
            _parkedCount -= ready.jobs.size();
        }
        _parkedGauge.set(double(_parkedCount));
    }
    if (!ready.jobs.empty())
        dispatch(std::move(ready.jobs), /*full=*/true);
    else
        _collectorWake.notify_one();
}

void
Scheduler::flush()
{
    dispatchParked(std::chrono::steady_clock::time_point::max());
}

void
Scheduler::dispatchParked(std::chrono::steady_clock::time_point cutoff)
{
    std::vector<LaneQueue> ready;
    {
        std::lock_guard<std::mutex> lock(_mutex);
        for (auto it = _parked.begin(); it != _parked.end();) {
            if (it->second.oldest > cutoff) {
                ++it;
                continue;
            }
            _parkedCount -= it->second.jobs.size();
            ready.push_back(std::move(it->second));
            it = _parked.erase(it);
        }
        _parkedGauge.set(double(_parkedCount));
    }
    for (LaneQueue &queue : ready)
        dispatch(std::move(queue.jobs), /*full=*/false);
}

void
Scheduler::dispatch(std::vector<JobPtr> jobs, bool full)
{
    (full ? _fullDispatches : _partialDispatches).inc();
    _laneFill.record(double(jobs.size()));

    obs::Tracer &tracer = obs::Tracer::instance();
    const int64_t dispatchUs = tracer.nowUs();
    // Each parked request's own trace gets its park interval — the
    // time it spent waiting for lane-mates — not just the shared run.
    std::vector<ExperimentSpec> specs;
    for (const JobPtr &job : jobs) {
        if (job->traceId != 0)
            tracer.recordComplete("serve.park", "serve", job->parkUs,
                                  dispatchUs - job->parkUs,
                                  obs::threadTrack(), job->traceId);
        specs.push_back(job->request.spec);
    }
    prewarmSharedState(specs);
    _pool.submit([this, jobs = std::move(jobs), dispatchUs] {
        return run(jobs, dispatchUs);
    });
}

bool
Scheduler::run(const std::vector<JobPtr> &jobs, int64_t dispatchUs)
{
    const int lanes = jobs.front()->request.lanes;
    if (_config.onJobStart)
        _config.onJobStart();
    _runs.add(int64_t(jobs.size()));
    obs::Tracer &tracer = obs::Tracer::instance();

    // Per-lane pre-start hook: a throw fails just that lane; the
    // survivors still run as a smaller batch (lane results are
    // composition-independent, so their answers are unchanged).
    std::vector<ExperimentSpec> specs;
    std::vector<Job *> live;
    for (const JobPtr &job : jobs) {
        if (lanes > 0 && _config.onLaneStart &&
            threw(job->error,
                  [&] { _config.onLaneStart(job->request.spec); }))
            continue;
        specs.push_back(job->request.spec);
        live.push_back(job.get());
    }

    const int64_t runStartUs = tracer.nowUs();
    std::vector<LaneResult> results;
    std::string error;
    bool failed = false;
    if (!live.empty()) {
        // Engine-internal spans correlate with the first live lane's
        // request; every lane's request gets its own serve.lane span.
        obs::TraceContextScope scope(live.front()->traceId);
        obs::Span span(lanes > 0 ? "serve.batch_run" : "serve.run", "serve");
        failed = threw(error, [&] {
            if (lanes > 0) {
                results = runBatchedGroup(specs, lanes);
                return;
            }
            // A scalar run's RunReport carries its store's counters.
            const Request &req = live.front()->request;
            ReportStatsSource source;
            if (req.store)
                source = [&req](obs::StatsRegistry &reg) {
                    req.store->addStats(reg);
                };
            results.push_back({true, "", runUncached(req.spec, source)});
        });
    }
    const int64_t runEndUs = tracer.nowUs();

    for (size_t l = 0; l < live.size(); ++l) {
        Job &job = *live[l];
        if (failed) {
            // A whole-batch failure fails each lane with the same error.
            job.error = error;
        } else if (!results[l].ok) {
            job.error = std::move(results[l].error);
        } else {
            // Stored only after the run succeeded.
            job.result = std::move(results[l].result);
            if (job.request.store)
                job.request.store->store(job.request.id, job.text());
            job.ok = true;
        }
    }
    for (const JobPtr &job : jobs) {
        // A parked request's trace shows the dispatch gap and its own
        // lane span; recorded before finish() extracts the trace.
        if (lanes > 0 && job->traceId != 0) {
            tracer.recordComplete("serve.batch_dispatch", "serve",
                                  dispatchUs, runStartUs - dispatchUs,
                                  obs::threadTrack(), job->traceId);
            tracer.recordComplete("serve.lane", "serve", runStartUs,
                                  runEndUs - runStartUs,
                                  obs::threadTrack(), job->traceId);
        }
        if (!job->ok)
            _runFailures.inc();
        finish(*job);
    }
    return !failed;
}

void
Scheduler::finish(Job &job, bool cacheHot)
{
    // Successful payloads enter the hot tier before waiters wake, so an
    // immediate repeat can already hit RAM.
    if (job.ok && cacheHot && _config.hot)
        _config.hot->insert(job.request.id, job.text());
    {
        // The dedup window spans the whole run: only now do identical
        // submissions stop attaching to this job.
        std::lock_guard<std::mutex> lock(_mutex);
        auto it = _inflight.find(job.request.key);
        if (it != _inflight.end() && it->second.get() == &job)
            _inflight.erase(it);
    }
    if (_config.onComplete)
        _config.onComplete(job);
    {
        std::lock_guard<std::mutex> lock(_mutex);
        job.done = true;
    }
    _done.notify_all();
}

void
Scheduler::wait(const Job &job)
{
    std::unique_lock<std::mutex> lock(_mutex);
    _done.wait(lock, [&] { return job.done.load(); });
}

size_t
Scheduler::inflight() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _inflight.size();
}

size_t
Scheduler::parked() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _parkedCount;
}

void
Scheduler::collectorLoop()
{
    const auto window =
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double, std::milli>(
                _config.coalesceWaitMs));
    std::unique_lock<std::mutex> lock(_mutex);
    while (!_stopCollector) {
        // No queue parked: the deadline is time_point::max().
        auto deadline = std::chrono::steady_clock::time_point::max();
        for (const auto &entry : _parked)
            deadline = std::min(deadline, entry.second.oldest + window);
        if (std::chrono::steady_clock::now() < deadline) {
            _collectorWake.wait_until(lock, deadline);
            continue;
        }
        lock.unlock();
        dispatchParked(std::chrono::steady_clock::now() - window);
        lock.lock();
    }
}

} // namespace sim
} // namespace coolair
