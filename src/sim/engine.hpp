#ifndef COOLAIR_SIM_ENGINE_HPP
#define COOLAIR_SIM_ENGINE_HPP

/**
 * @file
 * The co-simulation engine: steps climate -> workload -> plant, invokes
 * the controller on its epoch, and feeds the metrics collector and an
 * optional trace sink.  What it runs is a RunPlan's segments
 * (sim/run_plan.hpp); the spec-level lifecycle lives in sim/scenario.hpp.
 */

#include <functional>
#include <vector>

#include "environment/climate.hpp"
#include "plant/parasol.hpp"
#include "sim/controller.hpp"
#include "sim/metrics.hpp"
#include "sim/run_plan.hpp"
#include "workload/model.hpp"

namespace coolair {
namespace sim {

/** Engine stepping configuration. */
struct EngineConfig
{
    /** Physics step [s]. */
    double physicsStepS = 30.0;

    /** Sensor sampling / metrics interval [s]. */
    int64_t sampleIntervalS = 60;
};

/** One row of a run trace, for CSV dumps and figures. */
struct TraceRow
{
    util::SimTime time;
    double outsideC = 0.0;
    double outsideRhPercent = 0.0;
    double inletMinC = 0.0;
    double inletMaxC = 0.0;
    double hotAisleC = 0.0;
    double coldAisleRhPercent = 0.0;
    cooling::Mode mode = cooling::Mode::Closed;
    double fcFanSpeed = 0.0;
    double compressorSpeed = 0.0;
    double itPowerW = 0.0;
    double coolingPowerW = 0.0;
    double diskMinC = 0.0;
    double diskMaxC = 0.0;
    double dcUtilization = 0.0;
};

/** Callback invoked once per sample interval. */
using TraceSink = std::function<void(const TraceRow &)>;

/** Drives one (plant, workload, controller) assembly. */
class Engine
{
  public:
    /**
     * @throws std::invalid_argument unless config.sampleIntervalS is a
     *         positive multiple of a physics step of at least 1 s.
     */
    Engine(plant::Plant &plant, workload::WorkloadModel &workload,
           Controller &controller, const environment::WeatherProvider &climate,
           const EngineConfig &config = {});

    /** Attach a metrics collector (not owned). */
    void setMetrics(MetricsCollector *metrics) { _metrics = metrics; }

    /** Attach a trace sink. */
    void setTraceSink(TraceSink sink) { _sink = std::move(sink); }

    /**
     * Run the closed loop over [start, end).  @p collect enables
     * metrics/trace output (disabled during warm-up).
     */
    void runRange(util::SimTime start, util::SimTime end, bool collect);

    /**
     * Run one plan segment: initialize the plant near steady state,
     * warm up, then measure.  Control state (the commanded regime)
     * persists across segments.
     */
    void runSegment(const RunSegment &segment);

    /** Measure one calendar day (with warm-up). */
    void runDay(int day_of_year)
    {
        runSegment(RunSegment::days(day_of_year, day_of_year + 1));
    }

    /** §5.1 year protocol: measure yearSampleDays(@p weeks). */
    void runYearWeekly(int weeks = 52)
    {
        for (const RunSegment &segment : yearSegments(weeks))
            runSegment(segment);
    }

    /** Lifetime stepping counters (harvested once per run). */
    const RunCounters &counters() const { return _counters; }

  private:
    void sample(util::SimTime now, bool collect,
                const environment::WeatherSample &outside);

    plant::Plant &_plant;
    workload::WorkloadModel &_workload;
    Controller &_controller;
    const environment::WeatherProvider &_climate;
    EngineConfig _config;

    MetricsCollector *_metrics = nullptr;
    TraceSink _sink;

    cooling::Regime _command;
    int64_t _nextControlS = 0;

    RunCounters _counters;

    // Reused across every step/sample so steady-state stepping performs
    // no heap allocation (buffers reach capacity within one sample).
    plant::SensorReadings _sensors;
    plant::PodLoad _load;

    /** workload.loadVersion() at the last _load refresh; the per-step
        copy is skipped while it is unchanged (0 = no tracking: always
        copy).  ~0 forces the first copy. */
    uint64_t _loadVersion = ~uint64_t(0);
};

} // namespace sim
} // namespace coolair

#endif // COOLAIR_SIM_ENGINE_HPP
