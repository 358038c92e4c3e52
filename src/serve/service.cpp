#include "serve/service.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "obs/prometheus.hpp"
#include "obs/trace.hpp"
#include "serve/protocol.hpp"
#include "sim/result_cache.hpp"
#include "sim/spec_io.hpp"
#include "util/logging.hpp"

namespace coolair {
namespace serve {

namespace {

/** serve.latency_seconds bucket bounds: sub-millisecond warm hits
    through minute-long cold runs, roughly log-spaced. */
const std::vector<double> &
latencyBuckets()
{
    static const std::vector<double> bounds{
        0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25,
        0.5,   1.0,    2.5,   5.0,  10.0,  30.0, 60.0};
    return bounds;
}

} // anonymous namespace

ExperimentService::ExperimentService(ServiceConfig config)
    : _config(std::move(config)),
      _store(_config.cacheDir.empty()
                 ? nullptr
                 : std::make_unique<store::ResultStore>(
                       _config.cacheDir, sim::kResultCacheSalt,
                       sim::kResultFormatVersion)),
      _hot(_config.hotCacheBytes > 0
               ? std::make_unique<store::HotResultCache>(
                     _config.hotCacheBytes, _config.hotCacheShards)
               : nullptr),
      _requests(_stats.counter("serve.requests", "specs submitted")),
      _parseErrors(_stats.counter("serve.parse_errors",
                                  "submissions rejected as malformed")),
      _rejectedBusy(_stats.counter(
          "serve.rejected_busy",
          "submissions refused at the max-pending backlog cap",
          obs::kWallClock)),
      _latency(_stats.histogram("serve.latency_seconds",
                                "submit-to-done wall latency [s]",
                                obs::kWallClock, latencyBuckets())),
      _startTime(std::chrono::steady_clock::now()),
      _scheduler({.threads = _config.threads,
                  // <= 0 means dispatch on the collector's next tick.
                  .coalesceWaitMs = _config.coalesceLanes >= 2
                                        ? std::max(0.0, _config.coalesceWaitMs)
                                        : -1.0,
                  .maxInflight = _config.maxPending,
                  .hot = _hot.get(),
                  .stats = &_stats,
                  .onJobStart = _config.onJobStart,
                  .onLaneStart = _config.onLaneStart,
                  .onComplete = [this](sim::Scheduler::Job &job) {
                      complete(job);
                  }})
{
    if (_config.traceDepth > 0) {
        obs::Tracer &tracer = obs::Tracer::instance();
        if (!tracer.enabled()) {
            tracer.setEnabled(true);
            _enabledTracer = true;
        }
    }
    if (_config.sampleIntervalSeconds > 0.0) {
        obs::TimeSeriesConfig ts;
        ts.intervalSeconds = _config.sampleIntervalSeconds;
        ts.capacity = _config.seriesCapacity;
        _sampler = std::make_unique<obs::TimeSeriesSampler>(
            [this] { return mergedSnapshot(); }, ts);
        _sampler->start();
    }
}

ExperimentService::~ExperimentService()
{
    // Outstanding jobs complete when _scheduler (the last member) is
    // destroyed, while everything complete() touches is still alive.
    if (_sampler)
        _sampler->stop();
    if (_enabledTracer)
        obs::Tracer::instance().setEnabled(false);
}

ExperimentService::Submitted
ExperimentService::submit(const std::string &spec_text)
{
    // Every submission runs under its own trace context; all spans
    // recorded on its behalf — here, on the pool worker that picks the
    // job up (sim::JobPool re-opens this scope there), and inside the
    // engine — carry this id and reassemble into one request trace.
    const uint64_t traceId =
        _config.traceDepth > 0
            ? _nextTraceId.fetch_add(1, std::memory_order_relaxed)
            : 0;
    obs::TraceContextScope traceScope(traceId);

    _requests.inc();

    sim::Scheduler::Request request;
    {
        obs::Span span("serve.submit", "serve");
        try {
            obs::Span parseSpan("serve.parse", "serve");
            request.spec = sim::parseSpec(spec_text);
        } catch (const std::exception &e) {
            _parseErrors.inc();
            return {false, 0, e.what()};
        }

        // Serving is metrics-only: side outputs would be written on the
        // server, and cache placement is the server's choice — reset
        // both so the spec the job runs *is* its canonical identity.
        sim::ExperimentSpec &spec = request.spec;
        sim::copySpecKeys(spec, sim::ExperimentSpec{},
                          sim::kOutputKeys | sim::kCacheKeys);
        request.id = sim::resultCacheId(spec);
        request.key = request.id;
        request.store = _store.get();
        request.lanes = _config.coalesceLanes >= 2 && spec.batch > 0
                            ? _config.coalesceLanes
                            : 0;
    }

    sim::Scheduler::Admission admission =
        _scheduler.submit(std::move(request));
    if (!admission.job) {
        // Admission control: a fresh spec would add work to an
        // already-saturated backlog.
        _rejectedBusy.inc();
        return {false, 0,
                kBusyPrefix + std::to_string(_scheduler.inflight()) +
                    " specs in flight (cap " +
                    std::to_string(_config.maxPending) +
                    "); retry after the backlog drains"};
    }
    {
        std::lock_guard<std::mutex> lock(_mutex);
        _tickets.emplace(admission.tag, std::move(admission.job));
    }
    return {true, admission.tag, ""};
}

ExperimentService::Reply
ExperimentService::wait(uint64_t ticket)
{
    sim::Scheduler::JobPtr job;
    {
        std::lock_guard<std::mutex> lock(_mutex);
        auto it = _tickets.find(ticket);
        if (it == _tickets.end())
            return {false, "",
                    "unknown ticket " + std::to_string(ticket) +
                        " (tickets are consumed by WAIT)"};
        job = std::move(it->second);
        _tickets.erase(it);
    }
    _scheduler.wait(*job);
    if (job->ok)
        return {true, job->payload, ""};
    return {false, "", job->error};
}

ExperimentService::Reply
ExperimentService::run(const std::string &spec_text)
{
    Submitted sub = submit(spec_text);
    if (!sub.ok)
        return {false, "", sub.error};
    return wait(sub.ticket);
}

void
ExperimentService::complete(sim::Scheduler::Job &job)
{
    if (job.ok)
        job.text();  // the reply payload

    const double latency =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      job.submitted)
            .count();
    _latency.record(latency);

    // Extract this request's spans from the global tracer and retain
    // them as one finished Chrome-trace document before the job is
    // marked done, so a waiter that sees it done finds the trace (no
    // TRACE-after-WAIT race).  Extraction keeps per-request memory
    // bounded by traceDepth rather than the process-wide event buffer.
    std::vector<obs::TraceEvent> events;
    if (_config.traceDepth > 0 && job.traceId != 0) {
        obs::Tracer &tracer = obs::Tracer::instance();
        events = tracer.takeTrace(job.traceId);
        std::ostringstream os;
        obs::writeTraceEventsJson(os, events, tracer.trackNames());
        std::lock_guard<std::mutex> lock(_mutex);
        _traces.push_back(CompletedTrace{job.tags, os.str()});
        while (_traces.size() > size_t(_config.traceDepth))
            _traces.pop_front();
    }

    if (_config.slowRequestSeconds > 0.0 &&
        latency > _config.slowRequestSeconds) {
        std::vector<util::LogField> fields;
        fields.push_back({"latency_s", obs::formatDouble(latency)});
        fields.push_back({"ok", job.ok ? "true" : "false"});
        std::string ticketList;
        for (uint64_t t : job.tags) {
            if (!ticketList.empty())
                ticketList += ",";
            ticketList += std::to_string(t);
        }
        fields.push_back({"tickets", ticketList});
        if (job.traceId != 0)
            fields.push_back({"trace_id", std::to_string(job.traceId)});
        // Per-stage timings: total span seconds by name, so the line
        // says *where* the request spent its time.
        std::map<std::string, double> stageSeconds;
        for (const obs::TraceEvent &e : events)
            stageSeconds[e.name] += double(e.durUs) / 1e6;
        for (const auto &[name, seconds] : stageSeconds)
            fields.push_back(
                {"span." + name, obs::formatDouble(seconds)});
        util::Logger::instance().log(util::LogLevel::Warn,
                                     "slow request", fields);
    }
}

void
ExperimentService::mergeStats(obs::StatsRegistry &merged) const
{
    merged.merge(_stats);
    if (_store)
        _store->addStats(merged);
    if (_hot)
        _hot->addStats(merged);
}

std::vector<obs::StatsRegistry::Entry>
ExperimentService::mergedSnapshot() const
{
    obs::StatsRegistry merged;
    mergeStats(merged);
    return merged.snapshot();
}

std::string
ExperimentService::statsText() const
{
    obs::StatsRegistry merged;
    mergeStats(merged);
    std::ostringstream os;
    merged.dumpText(os);
    return os.str();
}

std::string
ExperimentService::metricsText(bool skipWallClock) const
{
    obs::PrometheusOptions options;
    options.skipWallClock = skipWallClock;
    return obs::toPrometheusText(mergedSnapshot(), options);
}

std::string
ExperimentService::healthText() const
{
    size_t outstanding = 0;
    size_t traces = 0;
    {
        std::lock_guard<std::mutex> lock(_mutex);
        outstanding = _tickets.size();
        traces = _traces.size();
    }
    const size_t inflight = _scheduler.inflight();
    const size_t parked = _scheduler.parked();
    const int workers = _scheduler.threads();
    const size_t poolPending = _scheduler.poolPending();
    const double uptime = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - _startTime)
                              .count();

    std::ostringstream os;
    // Admission cap first (it is what makes SUBMIT bounce), then the
    // softer backlog rule: more in-flight canonical specs than 4x the
    // worker pool means submissions arrive faster than they drain.
    if (_config.maxPending > 0 && inflight >= _config.maxPending)
        os << "status: DEGRADED (at max_pending cap: " << inflight
           << " of " << _config.maxPending
           << " in-flight specs; SUBMIT answers ERR busy)\n";
    else if (inflight > size_t(workers) * 4)
        os << "status: DEGRADED (backlog: " << inflight
           << " in-flight specs on " << workers << " workers)\n";
    else
        os << "status: OK\n";
    os << "uptime_seconds: " << obs::formatDouble(uptime) << "\n";
    os << "workers: " << workers << "\n";
    os << "inflight_specs: " << inflight << "\n";
    os << "pool_pending_jobs: " << poolPending << "\n";
    os << "max_pending: " << _config.maxPending << "\n";
    os << "tickets_outstanding: " << outstanding << "\n";
    os << "coalesce_lanes: " << _config.coalesceLanes << "\n";
    if (_config.coalesceLanes >= 2) {
        os << "coalesce_wait_ms: "
           << obs::formatDouble(_config.coalesceWaitMs) << "\n";
        os << "parked_specs: " << parked << "\n";
    }
    os << "store: " << (_config.cacheDir.empty() ? "(none)"
                                                 : _config.cacheDir)
       << "\n";
    if (_hot) {
        const store::HotResultCache::Stats hs = _hot->stats();
        os << "hot_cache_bytes: " << hs.bytes << " of "
           << _hot->capacityBytes() << " (" << hs.entries
           << " entries, " << _hot->shards() << " shards)\n";
    } else {
        os << "hot_cache_bytes: (disabled)\n";
    }
    os << "trace_depth: " << _config.traceDepth << "\n";
    os << "traces_retained: " << traces << "\n";
    os << "sampling_interval_s: "
       << obs::formatDouble(_sampler ? _config.sampleIntervalSeconds : 0.0)
       << "\n";
    os << "build: "
#ifdef NDEBUG
          "release"
#else
          "debug"
#endif
          ", result format v"
       << sim::kResultFormatVersion << "\n";
    return os.str();
}

bool
ExperimentService::seriesText(const std::string &name, uint64_t maxPoints,
                              std::string &out, std::string &error) const
{
    if (!_sampler) {
        error = "time-series sampling is disabled on this server";
        return false;
    }
    const std::vector<obs::SeriesPoint> points =
        _sampler->series(name, size_t(maxPoints));
    if (points.empty()) {
        error = "unknown series '" + name +
                "' (stat names from METRICS; histograms expose "
                "::count and ::mean)";
        return false;
    }
    std::ostringstream os;
    for (const obs::SeriesPoint &p : points)
        os << p.unixMs << " " << obs::formatDouble(p.value) << "\n";
    out = os.str();
    return true;
}

bool
ExperimentService::traceJson(uint64_t ticket, std::string &out,
                             std::string &error) const
{
    if (_config.traceDepth <= 0) {
        error = "tracing is disabled on this server "
                "(start with --trace-depth)";
        return false;
    }
    std::lock_guard<std::mutex> lock(_mutex);
    // Newest-first: after a ticket-counter lifetime of requests the
    // recent ones are the ones asked about.
    for (auto it = _traces.rbegin(); it != _traces.rend(); ++it) {
        if (std::find(it->tickets.begin(), it->tickets.end(), ticket) !=
            it->tickets.end()) {
            out = it->json;
            return true;
        }
    }
    auto t = _tickets.find(ticket);
    if (t != _tickets.end() && !t->second->done) {
        error = "ticket " + std::to_string(ticket) +
                " is still in flight; WAIT for it first";
        return false;
    }
    error = "no retained trace for ticket " + std::to_string(ticket) +
            " (unknown, evicted, or submitted before tracing)";
    return false;
}

} // namespace serve
} // namespace coolair
