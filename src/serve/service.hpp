#ifndef COOLAIR_SERVE_SERVICE_HPP
#define COOLAIR_SERVE_SERVICE_HPP

/**
 * @file
 * The experiment-serving core: a long-lived, socket-free adapter that
 * turns spec text into sim::Scheduler requests (sim/scheduler.hpp).
 * The scheduler owns the request lifecycle the runner shares — dedup
 * in flight, hot tier, store lookup, per-shape lane queues, the pool,
 * per-lane store writes.  What is left here is what belongs to the
 * wire: parsing and normalization, tickets, the busy answer, request
 * traces, the slow-request log and the STATS/METRICS/HEALTH/SERIES/
 * TRACE text.
 *
 * Determinism contract: a served RESULT payload is the
 * spec_io::formatResult text of the experiment, so it is byte-identical
 * to what the same spec produces through experiment_cli or an
 * ExperimentRunner sweep — warm (store hit), deduped, or fresh.  The
 * service adds caching and sharing, never a different answer.
 *
 * Request lifecycle:
 *
 *   submit(spec text)
 *     -> parse (strict spec_io; errors return to the caller, the
 *        daemon never dies on bad input)              (serve.parse_errors)
 *     -> normalize away output paths and cache keys (serving is
 *        metrics-only); the dedup key and the store id are both the
 *        canonical sim::resultCacheId
 *     -> scheduler admission: join (serve.dedup_hits), busy at
 *        maxPending (serve.rejected_busy, `ERR busy: ...`), hot hit
 *        (serve.hot_hits), store hit (serve.store_hits), a parked lane
 *        when coalescing (serve.coalesced), else a run (serve.runs)
 *   wait(ticket) blocks until the shared job completes and consumes
 *   the ticket (each submission gets its own ticket; the job is
 *   shared, the ticket is not).
 *
 * Coalescing (ServiceConfig::coalesceLanes >= 2): a cold batch > 0
 * spec is submitted with coalesceLanes as its lane target, so it parks
 * in its shape queue and dispatches as one SoA batch when the queue
 * fills or when its oldest entry has waited coalesceWaitMs.  Lane
 * results land under each spec's own result id and honor the DESIGN.md
 * §10 tolerance contract; a coalesced answer is byte-identical to the
 * same lane set submitted directly as one batch (locked by tests).
 *
 * Observability: the service owns an obs::StatsRegistry (always on)
 * that also receives the scheduler's serve.* stats; statsText() merges
 * in the store and hot-tier counters for STATS, metricsText() renders
 * the same merged registry as Prometheus text for METRICS, and a
 * TimeSeriesSampler snapshots it into bounded per-stat rings for
 * SERIES.  With traceDepth > 0 every submission gets a trace id that
 * follows it through the pool into the engine; at completion its
 * events are extracted into a ring of the last traceDepth request
 * traces (TRACE).  Requests slower than slowRequestSeconds log one
 * structured line with per-stage span timings.
 */

#include <atomic>
#include <cstdint>
#include <chrono>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/stats.hpp"
#include "obs/timeseries.hpp"
#include "sim/scheduler.hpp"
#include "store/hot_cache.hpp"
#include "store/result_store.hpp"

namespace coolair {
namespace serve {

/** Service knobs. */
struct ServiceConfig
{
    /**
     * Directory of the persistent result store; empty disables the
     * store (every distinct spec simulates, dedup-in-flight still
     * applies).  The same directory an experiment_cli --cache-dir or a
     * cached sweep uses — the daemon serves their entries and vice
     * versa.
     */
    std::string cacheDir;

    /** Worker threads (0 = COOLAIR_THREADS / hardware auto). */
    int threads = 0;

    /**
     * Test hook: when set, every scheduled run calls this on its
     * worker thread before simulating (once per dispatched batch on
     * the coalesced path).  Lets tests hold jobs open to pin down
     * dedup-in-flight and coalesce windows deterministically.
     */
    std::function<void()> onJobStart;

    /**
     * Test/fault-injection hook: on the coalesced path, called once
     * per lane (with that lane's spec) before the batch runs.  A
     * throwing hook fails *only* that lane — its request resolves
     * with the exception text while the surviving lanes run as a
     * smaller batch.  This is the service-level counterpart of the
     * batch engine's trace-path fault lever (which submit()'s
     * normalization strips away).
     */
    std::function<void(const sim::ExperimentSpec &)> onLaneStart;

    /**
     * Coalescing lane target: >= 2 parks cold batch>0 submissions in
     * per-shape queues and dispatches them to the batched engine as
     * lanes fill (the --coalesce server flag).  0/1 disables
     * coalescing — every cold miss runs immediately.
     */
    int coalesceLanes = 0;

    /** Collection window: a parked queue older than this dispatches
        partially filled rather than waiting for coalesceLanes (the
        --coalesce-wait-ms flag).  <= 0 means dispatch-on-next-tick. */
    double coalesceWaitMs = 5.0;

    /** In-memory hot-result cache budget in bytes; 0 disables the hot
        tier (the --hot-cache-mb flag). */
    size_t hotCacheBytes = 0;

    /** Mutex stripes for the hot cache. */
    int hotCacheShards = 8;

    /**
     * Admission cap: a fresh submission arriving while this many
     * canonical specs are already in flight is rejected with a
     * structured `busy: ...` error (serve.rejected_busy, HEALTH
     * DEGRADED).  0 = unbounded (the --max-pending flag).
     */
    size_t maxPending = 0;

    /**
     * Retain the last this-many completed request traces for the
     * TRACE verb (and enable the global Tracer for the service's
     * lifetime).  0 disables request tracing entirely.
     */
    int traceDepth = 0;

    /**
     * Log one structured line (with per-stage span timings when
     * tracing is on) for any request slower than this many seconds of
     * submit-to-done wall time.  <= 0 disables the slow-request log.
     */
    double slowRequestSeconds = 0.0;

    /** Seconds between time-series samples (SERIES verb); <= 0
        disables the background sampler. */
    double sampleIntervalSeconds = 1.0;

    /** Points retained per sampled series. */
    size_t seriesCapacity = 600;
};

/** The serving core (transport-agnostic; see serve/server.hpp). */
class ExperimentService
{
  public:
    explicit ExperimentService(ServiceConfig config = {});

    /** Dispatches parked lanes and drains in-flight jobs first. */
    ~ExperimentService();

    ExperimentService(const ExperimentService &) = delete;
    ExperimentService &operator=(const ExperimentService &) = delete;

    /** Outcome of a submit: a ticket to wait on, or a parse error. */
    struct Submitted
    {
        bool ok = false;
        uint64_t ticket = 0;
        std::string error;
    };

    /** A completed (or failed) experiment. */
    struct Reply
    {
        bool ok = false;
        std::string payload;  ///< formatResult text when ok.
        std::string error;    ///< failure message when !ok.
    };

    /**
     * Parse @p spec_text (full sim/spec_io semantics) and enqueue it.
     * Never throws on bad input: malformed specs come back as an error
     * Submitted.  Thread-safe.
     */
    Submitted submit(const std::string &spec_text);

    /**
     * Block until @p ticket's job completes and return its payload or
     * failure.  Consumes the ticket: a second wait on the same ticket
     * reports it unknown.  Thread-safe.
     */
    Reply wait(uint64_t ticket);

    /** submit() + wait() in one call. */
    Reply run(const std::string &spec_text);

    /** Deterministically-ordered text dump of serve.* and store.*. */
    std::string statsText() const;

    /**
     * The same merged serve.* / store.* registry as Prometheus text
     * exposition (obs/prometheus.hpp).  @p skipWallClock omits stats
     * whose value depends on wall time or scheduling, leaving output
     * that is byte-identical across thread counts for an identical
     * request sequence.  Snapshots briefly under per-stat locks and
     * renders on the caller's thread — never holds a lock across
     * formatting or socket writes.
     */
    std::string metricsText(bool skipWallClock = false) const;

    /**
     * One-frame liveness summary for the HEALTH verb: `status: OK` (or
     * `status: DEGRADED (<reason>)` when the in-flight backlog exceeds
     * 4x the worker count), uptime, worker/backlog occupancy, and
     * build info.
     */
    std::string healthText() const;

    /**
     * The last @p maxPoints points of sampled series @p name as
     * `<unix-ms> <value>` lines.  False (with @p error) when sampling
     * is off or the series does not exist.
     */
    bool seriesText(const std::string &name, uint64_t maxPoints,
                    std::string &out, std::string &error) const;

    /**
     * The retained Chrome-trace JSON of the completed request that
     * ticket @p ticket attached to.  False (with @p error) when
     * tracing is off, the request is still in flight, or the trace
     * was never retained / already evicted.
     */
    bool traceJson(uint64_t ticket, std::string &out,
                   std::string &error) const;

    /** The background sampler, or nullptr when sampling is disabled.
        Tests drive sampleNow() through this for deterministic rings. */
    obs::TimeSeriesSampler *sampler() { return _sampler.get(); }

    /** The service's live registry (server transports add their own
        serve.connections-style counters here). */
    obs::StatsRegistry &stats() { return _stats; }

    /** The persistent store, or nullptr when cacheDir was empty. */
    store::ResultStore *store() { return _store.get(); }

    /** Worker-pool width (for banners and load drivers). */
    int threads() const { return _scheduler.threads(); }

  private:
    /** One retained completed-request trace. */
    struct CompletedTrace
    {
        std::vector<uint64_t> tickets;
        std::string json;  ///< finished Chrome-trace document.
    };

    void complete(sim::Scheduler::Job &job);
    void mergeStats(obs::StatsRegistry &merged) const;
    std::vector<obs::StatsRegistry::Entry> mergedSnapshot() const;

    ServiceConfig _config;
    std::unique_ptr<store::ResultStore> _store;
    std::unique_ptr<store::HotResultCache> _hot;

    obs::StatsRegistry _stats;
    obs::Counter &_requests;
    obs::Counter &_parseErrors;
    obs::Counter &_rejectedBusy;
    obs::Histogram &_latency;

    std::chrono::steady_clock::time_point _startTime;
    std::atomic<uint64_t> _nextTraceId{1};
    bool _enabledTracer = false;
    std::unique_ptr<obs::TimeSeriesSampler> _sampler;

    mutable std::mutex _mutex;
    std::map<uint64_t, sim::Scheduler::JobPtr> _tickets;
    std::deque<CompletedTrace> _traces;  ///< last traceDepth requests.

    /** Last member: destroyed first, so every outstanding job
        completes while the state above is alive. */
    sim::Scheduler _scheduler;
};

} // namespace serve
} // namespace coolair

#endif // COOLAIR_SERVE_SERVICE_HPP
