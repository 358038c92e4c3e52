#ifndef COOLAIR_PERFBENCH_LAYERS_HPP
#define COOLAIR_PERFBENCH_LAYERS_HPP

/**
 * @file
 * Forwarding decorators around the three interfaces a sim::Engine is
 * built from (environment::WeatherProvider, workload::WorkloadModel,
 * sim::Controller), and an assembly that wires them exactly the way
 * sim::ScenarioBuilder::build() wires the undecorated parts.  Each
 * decorator times its forwarded call with a LayerScope and changes
 * nothing else, so the decorated engine's Summary is bit-identical to
 * the scenario path's (checked on every traced run).
 */

#include <memory>

#include "environment/weather_cache.hpp"
#include "harness.hpp"
#include "sim/engine.hpp"
#include "sim/experiment.hpp"
#include "sim/scenario.hpp"

namespace perfbench {

class TimedWeather : public coolair::environment::WeatherProvider
{
  public:
    explicit TimedWeather(const coolair::environment::WeatherProvider &inner)
        : _inner(inner)
    {
    }

    coolair::environment::WeatherSample
    sample(coolair::util::SimTime t) const override
    {
        LayerScope scope(Layer::EnvSample);
        return _inner.sample(t);
    }

    double temperature(coolair::util::SimTime t) const override
    {
        LayerScope scope(Layer::EnvSample);
        return _inner.temperature(t);
    }

  private:
    const coolair::environment::WeatherProvider &_inner;
};

/** loadVersion() is a plain getter the engine reads every step; it is
    forwarded untimed (a clock pair would cost more than the call). */
class TimedWorkload : public coolair::workload::WorkloadModel
{
  public:
    explicit TimedWorkload(coolair::workload::WorkloadModel &inner)
        : _inner(inner)
    {
    }

    void applyPlan(const coolair::workload::ComputePlan &plan) override
    {
        LayerScope scope(Layer::WorkloadLoad);
        _inner.applyPlan(plan);
    }

    void step(coolair::util::SimTime now, double dt_s) override
    {
        LayerScope scope(Layer::WorkloadStep);
        _inner.step(now, dt_s);
    }

    coolair::plant::PodLoad podLoad() const override
    {
        LayerScope scope(Layer::WorkloadLoad);
        return _inner.podLoad();
    }

    void podLoadInto(coolair::plant::PodLoad &out) const override
    {
        LayerScope scope(Layer::WorkloadLoad);
        _inner.podLoadInto(out);
    }

    uint64_t loadVersion() const override { return _inner.loadVersion(); }

    coolair::workload::WorkloadStatus status() const override
    {
        LayerScope scope(Layer::WorkloadLoad);
        return _inner.status();
    }

  private:
    coolair::workload::WorkloadModel &_inner;
};

class TimedController : public coolair::sim::Controller
{
  public:
    explicit TimedController(coolair::sim::Controller &inner) : _inner(inner)
    {
    }

    coolair::sim::ControlDecision
    control(const coolair::plant::SensorReadings &sensors,
            const coolair::workload::WorkloadStatus &status,
            const coolair::plant::PodLoad &load,
            coolair::util::SimTime now) override
    {
        LayerScope scope(Layer::CoreControl);
        return _inner.control(sensors, status, load, now);
    }

    int64_t epochS() const override { return _inner.epochS(); }
    const char *name() const override { return _inner.name(); }

    void addStats(coolair::obs::StatsRegistry &reg) const override
    {
        _inner.addStats(reg);
    }

  private:
    coolair::sim::Controller &_inner;
};

/**
 * One engine stack with decorated weather, workload and controller,
 * assembled in ScenarioBuilder::build()'s order from the same
 * factories.  Members are declared in dependency order so the engine
 * (last) is destroyed first.
 */
struct DecoratedRun
{
    explicit DecoratedRun(const coolair::sim::ExperimentSpec &spec);

    coolair::sim::ExperimentSpec spec;
    std::unique_ptr<coolair::plant::Plant> plant;
    std::unique_ptr<coolair::environment::Climate> climate;
    std::unique_ptr<coolair::environment::CachedWeatherProvider> cache;
    std::unique_ptr<TimedWeather> weather;
    std::unique_ptr<coolair::environment::Forecaster> forecaster;
    std::unique_ptr<coolair::workload::WorkloadModel> innerWorkload;
    std::unique_ptr<TimedWorkload> workload;
    std::unique_ptr<coolair::sim::Controller> innerController;
    std::unique_ptr<TimedController> controller;
    std::unique_ptr<coolair::sim::MetricsCollector> metrics;
    std::unique_ptr<coolair::sim::Engine> engine;

    /** Run the year protocol under the EngineRun layer and return the
        result the scenario path would. */
    coolair::sim::ExperimentResult runYear();
};

} // namespace perfbench

#endif // COOLAIR_PERFBENCH_LAYERS_HPP
