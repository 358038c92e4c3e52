#ifndef COOLAIR_SIM_ENGINE_HPP
#define COOLAIR_SIM_ENGINE_HPP

/**
 * @file
 * The co-simulation engine, the one scalar closed loop: steps climate
 * -> workload -> plant, invokes the controller on its epoch, and feeds
 * the metrics collector and an optional trace sink.  What it runs is a
 * RunPlan's segments (sim/run_plan.hpp) on the physics plant, a
 * Real-Sim day on the learned-model plant (sim/model_plant.hpp), or one
 * multi-zone tick per zone (multizone/multizone.hpp); the spec-level
 * lifecycle lives in sim/scenario.hpp.
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
     *         positive multiple of an integral physics step of at least
     *         1 s.
     */
    Engine(plant::PlantModel &plant, workload::WorkloadModel &workload,
           Controller &controller, const environment::WeatherProvider &climate,
           const EngineConfig &config = {});

    /** Attach a metrics collector (not owned). */
    void setMetrics(MetricsCollector *metrics) { _metrics = metrics; }

    /** Attach a trace sink. */
    void setTraceSink(TraceSink sink) { _sink = std::move(sink); }

    /**
     * Start a segment at @p at: the plant near steady state for the
     * weather at @p at, and a control epoch due at @p at.  Control
     * state (the commanded regime) persists across segments.
     */
    void startSegment(util::SimTime at);

    /**
     * One physics step at @p now: on a sample tick (@p sample_tick)
     * read the sensors, run the controller if its epoch is due and, when
     * @p collect, record metrics and trace; then step the workload and
     * the plant.
     */
    void step(util::SimTime now, bool sample_tick, bool collect);

    /**
     * Run the closed loop over [start, end), sampling every
     * sampleIntervalS from @p start.  @p collect enables metrics/trace
     * output (disabled during warm-up).
     */
    void runRange(util::SimTime start, util::SimTime end, bool collect);

    /** Run one plan segment: start it, warm up, then measure. */
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

    /** Copy the workload's pod load into _load if it changed. */
    void refreshLoad();

    plant::PlantModel &_plant;
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
