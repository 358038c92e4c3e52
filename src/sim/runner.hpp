#ifndef COOLAIR_SIM_RUNNER_HPP
#define COOLAIR_SIM_RUNNER_HPP

/**
 * @file
 * Sweep driver for the figure grids, the world sweep and the ablations:
 * run() submits every spec to one sim::Scheduler (sim/scheduler.hpp),
 * flushes its lane queues and waits for every spec.  The scheduler does
 * the store lookup, the batch grouping and the pool dispatch the serve
 * layer uses too.
 *
 * Design rules that keep parallel runs bit-identical to serial ones:
 *
 *  - every experiment's randomness derives only from its spec (use
 *    deriveSeed() to give each spec an independent stream keyed on the
 *    spec's identity, never on scheduling order);
 *  - results come back indexed by spec order, so callers reduce them
 *    serially in a deterministic order no matter which worker ran which
 *    spec;
 *  - each spec is its own scheduler request (the dedup key is its
 *    index), so nothing is shared across a sweep;
 *  - specs with batch > 0 are grouped by batchShapeKey in spec order and
 *    chunked by spec.batch, never by scheduling.
 *
 * A failing spec is reported in the outcome with its index instead of
 * terminating the process; a failing lane spares the rest of its batch,
 * and a batch that fails as a whole fails each of its specs.  Specs with
 * a usable cache_dir are answered from the persistent result store when
 * it has them (SweepOutcome::fromCache) and stored when they run.
 */

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/experiment.hpp"

namespace coolair {
namespace sim {

/** Runner knobs. */
struct RunnerConfig
{
    /**
     * Worker-thread count; 0 means auto: the COOLAIR_THREADS environment
     * variable if set to a positive integer, else hardware_concurrency().
     */
    int threads = 0;

    /**
     * Emit progress lines (completed count, jobs/s throughput, ETA)
     * while jobs complete.  Lines go through util::Logger at Info
     * level, so the process must run with the level at Info or lower
     * (setLevel or COOLAIR_LOG_LEVEL=info) to see them.
     */
    bool progress = false;

    /** Report every this-many completed jobs (and at the end). */
    size_t progressEvery = 100;

    /** Noun used in progress lines. */
    std::string progressLabel = "experiments";
};

/** One captured worker failure from the generic forEach() API. */
struct TaskFailure
{
    size_t index = 0;
    std::string message;
};

/** A failed experiment, carrying the spec that caused it. */
struct ExperimentFailure
{
    size_t index = 0;
    ExperimentSpec spec;
    std::string message;
};

/**
 * Results of one sweep.  results[i] corresponds to specs[i] regardless
 * of scheduling; entries whose spec failed are default-constructed and
 * listed in failures (sorted by index).
 */
struct SweepOutcome
{
    std::vector<ExperimentResult> results;
    std::vector<ExperimentFailure> failures;

    /**
     * Per-spec provenance: 1 when results[i] was served from the
     * persistent result store, 0 when the experiment ran (or failed).
     * Sized like results.
     */
    std::vector<uint8_t> fromCache;

    /** True when every spec completed. */
    bool allOk() const { return failures.empty(); }

    /** True when spec @p index completed. */
    bool ok(size_t index) const;

    /** Number of specs served from the result store. */
    size_t cacheHits() const;
};

/** The sweep driver.  Stateless between calls; cheap to construct. */
class ExperimentRunner
{
  public:
    explicit ExperimentRunner(const RunnerConfig &config = {});

    /** The thread count run() will use (after env resolution). */
    int threads() const { return _threads; }

    /**
     * Resolve a requested thread count: a positive @p requested wins;
     * otherwise COOLAIR_THREADS (if a positive integer), otherwise
     * hardware_concurrency(), never less than 1.
     */
    static int resolveThreads(int requested);

    /**
     * Derive an independent per-experiment seed by hash-mixing the root
     * seed, the spec's index, and an optional name (Rng fork-style).
     * Depends only on the arguments — never on scheduling — so parallel
     * sweeps reproduce serial ones bit for bit.
     */
    static uint64_t deriveSeed(uint64_t root_seed, size_t index,
                               const std::string &name = std::string());

    /**
     * Run every spec through a sim::Scheduler of threads() workers:
     * submit all, flush, wait all.  Captures per-spec failures and
     * returns results in spec order.
     */
    SweepOutcome run(const std::vector<ExperimentSpec> &specs) const;

    /**
     * Generic parallel-for over [0, count) on a sim::JobPool of up to
     * threads() workers: @p fn runs for each index exactly once.  Exceptions thrown by @p fn are captured
     * per index (sorted by index on return) and do not stop the other
     * jobs.  @p fn must synchronize any shared mutable state itself;
     * writing to distinct elements of a pre-sized vector is safe.
     */
    std::vector<TaskFailure>
    forEach(size_t count, const std::function<void(size_t)> &fn) const;

  private:
    RunnerConfig _config;
    int _threads;
};

} // namespace sim
} // namespace coolair

#endif // COOLAIR_SIM_RUNNER_HPP
