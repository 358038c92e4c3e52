#include "layers.hpp"

#include <algorithm>

namespace perfbench {

namespace env = coolair::environment;
namespace sim = coolair::sim;

DecoratedRun::DecoratedRun(const sim::ExperimentSpec &s) : spec(s)
{
    const coolair::plant::PlantConfig pc = sim::plantConfigFor(spec);
    plant = std::make_unique<coolair::plant::Plant>(pc, spec.seed);
    climate = std::make_unique<env::Climate>(
        spec.location.makeClimate(spec.seed));
    const int64_t grid = env::weatherCacheGridStepS(spec.physicsStepS);
    if (spec.weatherCache && grid > 0)
        cache = std::make_unique<env::CachedWeatherProvider>(*climate, grid);
    weather = std::make_unique<TimedWeather>(
        cache ? static_cast<const env::WeatherProvider &>(*cache)
              : *climate);
    forecaster = std::make_unique<env::Forecaster>(
        *weather, spec.forecastError, spec.seed);
    innerWorkload = sim::makeWorkload(spec);
    workload = std::make_unique<TimedWorkload>(*innerWorkload);
    innerController = sim::makeController(spec, forecaster.get());
    controller = std::make_unique<TimedController>(*innerController);

    sim::MetricsConfig mc;
    mc.maxTempC = spec.maxTempC;
    metrics = std::make_unique<sim::MetricsCollector>(mc, pc.numPods);

    sim::EngineConfig ec;
    ec.physicsStepS = spec.physicsStepS;
    ec.sampleIntervalS = std::max<int64_t>(60, int64_t(spec.physicsStepS));
    engine = std::make_unique<sim::Engine>(*plant, *workload, *controller,
                                           *weather, ec);
    engine->setMetrics(metrics.get());
}

sim::ExperimentResult
DecoratedRun::runYear()
{
    {
        LayerScope scope(Layer::EngineRun);
        engine->runYearWeekly(spec.weeks);
    }
    sim::ExperimentResult result;
    result.system = metrics->summary();
    result.outside = metrics->outsideSummary();
    return result;
}

} // namespace perfbench
