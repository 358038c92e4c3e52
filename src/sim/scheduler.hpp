#ifndef COOLAIR_SIM_SCHEDULER_HPP
#define COOLAIR_SIM_SCHEDULER_HPP

/**
 * @file
 * The one experiment scheduler behind sweeps (ExperimentRunner::run)
 * and serving (serve::ExperimentService), over the one thread pool.
 *
 * Every request takes the same path (DESIGN.md §13):
 *
 *   submit(request)                                        admitted
 *     -> caller key already in flight?  attach to it       joined
 *     -> in-flight table at the cap?    refuse (busy)
 *     -> hot tier has the result id?    complete at once   hot hit
 *     -> store has the result id?       complete at once   store hit
 *     -> lanes == 0                     one pool job       queued
 *     -> lanes  > 0                     per-shape queue    parked
 *   a parked shape queue dispatches as one batched job     dispatched
 *     when it reaches its lane target (full), when its oldest entry
 *     has waited the collection window (partial, only when a window
 *     is configured), or on flush() and destruction (partial)
 *   run -> per-lane store write -> hot insert -> onComplete   completed
 *
 * The caller chooses the dedup key (a sweep uses the spec index, so
 * nothing is shared across a sweep; the service uses the result id,
 * so identical concurrent requests share one run) and the lane target
 * (a sweep passes spec.batch, the service its coalescing target).
 * Hot and store lookups run on the submitting thread, so a warm answer
 * never waits behind cold runs in the pool.  The shared lazy state a
 * job needs (learned bundles, the utilization profile) is prewarmed on
 * the dispatching thread before the job enters the pool, so pool
 * workers never serialize on first-touch learning, and a request
 * answered from a cache loads nothing.
 *
 * Failure rules: a lane that fails (or whose onLaneStart hook throws)
 * resolves only its own job while the rest of its batch runs; a batch
 * that fails as a whole fails each of its jobs with the same message.
 * Nothing is stored for a failed job.
 */

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/stats.hpp"
#include "sim/experiment.hpp"
#include "store/hot_cache.hpp"
#include "store/result_store.hpp"

namespace coolair {
namespace sim {

/** Run @p fn; true (with the message in @p error) when it threw. */
template <typename Fn>
bool
threw(std::string &error, Fn &&fn)
{
    try {
        fn();
        return false;
    } catch (const std::exception &e) {
        error = e.what();
    } catch (...) {
        error = "unknown exception";
    }
    return true;
}

/**
 * A persistent fixed-size worker pool.  Jobs run exactly once, FIFO by
 * worker pickup; a job returns false (or throws) to report that it
 * failed.  A throwing job is reported through util::warn and the pool
 * survives it.
 *
 * With obs stats on, every job records runner.jobs, runner.job_failures
 * (jobs that failed), runner.job_seconds and runner.queue_wait_seconds
 * (delay from submit to start).  The submitter's trace context
 * (obs::currentTraceId) is re-opened around the job on the worker.
 */
class JobPool
{
  public:
    /** Start @p threads workers (0 = ExperimentRunner::resolveThreads
        auto semantics: COOLAIR_THREADS, else hardware concurrency). */
    explicit JobPool(int threads = 0);

    /** Drains the queue (runs every submitted job), then joins. */
    ~JobPool();

    JobPool(const JobPool &) = delete;
    JobPool &operator=(const JobPool &) = delete;

    /** Number of worker threads. */
    int threads() const { return int(_workers.size()); }

    /** Enqueue @p job.  Thread-safe; not after destruction began. */
    void submit(std::function<bool()> job);

    /** Jobs queued or executing (a snapshot, for backlog reports). */
    size_t pending() const;

  private:
    struct Queued
    {
        std::function<bool()> job;
        std::chrono::steady_clock::time_point queued;
        uint64_t traceId = 0;  ///< the submitter's trace context.
    };

    void workerLoop(int slot);

    mutable std::mutex _mutex;
    std::condition_variable _wake;   ///< workers wait for jobs/stop
    std::deque<Queued> _queue;
    size_t _running = 0;             ///< jobs currently executing
    bool _stopping = false;
    std::vector<std::thread> _workers;
};

/** Admission, lane queues and dispatch over one JobPool. */
class Scheduler
{
  public:
    /** One submission. */
    struct Request
    {
        ExperimentSpec spec;
        std::string key;  ///< dedup key: submissions sharing it share a job.
        std::string id;   ///< result id (hot tier and store key).
        store::ResultStore *store = nullptr;  ///< null: no lookup, no write.
        int lanes = 0;    ///< 0: scalar job; > 0: lane target of the
                          ///< spec's batchShapeKey queue.
    };

    /** One admitted job, shared by every submission that joined it. */
    struct Job
    {
        Request request;
        std::chrono::steady_clock::time_point submitted;
        uint64_t traceId = 0;  ///< first submitter's trace context.
        int64_t parkUs = 0;    ///< tracer timestamp when parked.
        std::vector<uint64_t> tags;  ///< submission numbers that share it.

        // Outcome, readable once done (after wait() or in onComplete).
        std::atomic<bool> done{false};
        bool ok = false;
        bool fromCache = false;  ///< answered by the hot tier or store.
        ExperimentResult result;  ///< unset on a hot hit (payload only).
        std::string payload;      ///< formatResult text, filled lazily.
        std::string error;

        /** The result's formatResult text (formats it on first use). */
        const std::string &text();
    };
    using JobPtr = std::shared_ptr<Job>;

    /** What the caller's settings make of the scheduler. */
    struct Config
    {
        int threads = 0;  ///< pool width (0 = auto).
        /** Collection window of a parked queue; < 0: none (queues
            dispatch only when full or on flush()). */
        double coalesceWaitMs = -1.0;
        size_t maxInflight = 0;  ///< admission cap; 0 = unbounded.
        store::HotResultCache *hot = nullptr;  ///< optional hot tier.
        /** Registry receiving the serve.* scheduling stats. */
        obs::StatsRegistry *stats = nullptr;
        std::function<void()> onJobStart;  ///< per scalar job or batch.
        std::function<void(const ExperimentSpec &)> onLaneStart;
        /** On the completing thread, after the dedup window closed and
            before waiters wake. */
        std::function<void(Job &)> onComplete;
    };

    /** Result of submit(): job is null when refused at the cap. */
    struct Admission
    {
        JobPtr job;
        uint64_t tag = 0;  ///< this submission's number (1, 2, ...).
    };

    explicit Scheduler(Config config);

    /** Dispatches every parked queue and waits for every job. */
    ~Scheduler();

    Scheduler(const Scheduler &) = delete;
    Scheduler &operator=(const Scheduler &) = delete;

    /** Admit @p request (see the file comment).  Thread-safe. */
    Admission submit(Request request);

    /** Dispatch every parked queue now, partially filled or not. */
    void flush();

    /** Block until @p job is done. */
    void wait(const Job &job);

    /** Canonical jobs admitted and not yet completed. */
    size_t inflight() const;

    /** Jobs parked in shape queues. */
    size_t parked() const;

    int threads() const { return _pool.threads(); }
    size_t poolPending() const { return _pool.pending(); }

  private:
    /** One per-shape collection queue of parked jobs. */
    struct LaneQueue
    {
        std::vector<JobPtr> jobs;  ///< lane order; all of one lane target.
        std::chrono::steady_clock::time_point oldest;
    };

    bool lookup(Job &job);
    void park(const JobPtr &job);
    /** Dispatch (partially) every queue parked at or before @p cutoff. */
    void dispatchParked(std::chrono::steady_clock::time_point cutoff);
    void dispatch(std::vector<JobPtr> jobs, bool full);
    /** One pool job: a scalar run (lanes == 0, one job) or a batch. */
    bool run(const std::vector<JobPtr> &jobs, int64_t dispatchUs);
    void finish(Job &job, bool cacheHot = true);
    void collectorLoop();

    Config _config;
    obs::StatsRegistry _ownStats;  ///< used when config.stats is null.
    obs::StatsRegistry &_stats;
    obs::Counter &_storeHits;
    obs::Counter &_dedupHits;
    obs::Counter &_runs;
    obs::Counter &_runFailures;
    obs::Counter &_coalesced;
    obs::Counter &_fullDispatches;
    obs::Counter &_partialDispatches;
    obs::Gauge &_parkedGauge;
    obs::Histogram &_laneFill;

    mutable std::mutex _mutex;
    std::condition_variable _done;
    std::map<std::string, JobPtr> _inflight;  ///< caller key -> job
    uint64_t _nextTag = 1;
    std::map<std::string, LaneQueue> _parked;  ///< shape -> queue
    size_t _parkedCount = 0;
    bool _stopCollector = false;
    std::condition_variable _collectorWake;
    std::thread _collector;

    /** Last member: destroyed (and drained) first. */
    JobPool _pool;
};

} // namespace sim
} // namespace coolair

#endif // COOLAIR_SIM_SCHEDULER_HPP
