#ifndef COOLAIR_SIM_RUN_PLAN_HPP
#define COOLAIR_SIM_RUN_PLAN_HPP

/**
 * @file
 * The run plan: what span of simulated time a spec covers and on what
 * timeline, derived in one place for both engines.
 *
 * A run is a list of segments, each a warm-up followed by a measured
 * span.  The scalar Engine and the BatchedEngine step the same plan
 * segment by segment and count their work in RunCounters, so both
 * report the same step and sample counts for the same spec.
 */

#include <cstdint>
#include <vector>

#include "sim/experiment.hpp"
#include "util/sim_time.hpp"

namespace coolair {
namespace sim {

/** Warm-up run before each measured segment [s] (no metrics). */
inline constexpr int64_t kWarmupS = 2 * util::kSecondsPerHour;

/** One segment: warm up over [warmStartS, startS), measure [startS, endS). */
struct RunSegment
{
    int64_t warmStartS = 0;
    int64_t startS = 0;
    int64_t endS = 0;

    /** Measure the days [@p first_day, @p end_day) after a kWarmupS warm-up. */
    static RunSegment days(int first_day, int end_day);
};

/**
 * The days of the year sampled by a YearWeekly run: @p weeks days
 * spread uniformly across the whole year.  For 52 weeks this is exactly
 * the §5.1 first-day-of-each-week protocol; for shorter runs the stride
 * grows so the sample still spans all seasons.
 */
std::vector<int> yearSampleDays(int weeks);

/** One one-day segment per yearSampleDays(@p weeks) day. */
std::vector<RunSegment> yearSegments(int weeks);

/** The sensor/metrics interval of a physics step: max(60, @p step_s). */
int64_t sampleIntervalFor(int64_t step_s);

/** The timeline and segments of one run. */
struct RunPlan
{
    int64_t stepS = 0;            ///< Physics step [s].
    int64_t sampleIntervalS = 0;  ///< sampleIntervalFor(stepS).
    std::vector<RunSegment> segments;

    /**
     * The plan of @p spec's run kind, derived after validateSpec
     * (sim/spec_io.hpp) accepted the whole spec, so every integer
     * conversion here is in range.
     *
     * @throws std::invalid_argument naming every violating key.
     */
    static RunPlan forSpec(const ExperimentSpec &spec);
};

/** What one engine (or one batch lane) did during a run. */
struct RunCounters
{
    int64_t steps = 0;              ///< Physics steps taken.
    int64_t samples = 0;            ///< Collected metric samples.
    int64_t controlEpochs = 0;      ///< Controller invocations.
    int64_t regimeTransitions = 0;  ///< Commanded regime changes.
    int64_t acSamples = 0;          ///< Collected samples in AC mode.
};

} // namespace sim
} // namespace coolair

#endif // COOLAIR_SIM_RUN_PLAN_HPP
