#include "sim/scenario.hpp"

#include <chrono>
#include <stdexcept>
#include <utility>

#include "obs/trace.hpp"
#include "sim/batch_engine.hpp"
#include "sim/result_cache.hpp"
#include "sim/spec_io.hpp"
#include "sim/trace_csv.hpp"
#include "util/logging.hpp"
#include "workload/cluster.hpp"
#include "workload/profile.hpp"
#include "workload/trace_gen.hpp"

namespace coolair {
namespace sim {

// ---------------------------------------------------------------------------
// Component factories.
// ---------------------------------------------------------------------------

plant::PlantConfig
plantConfigFor(const ExperimentSpec &spec)
{
    switch (spec.variant) {
      case PlantVariant::Standard:
        return spec.style == cooling::ActuatorStyle::Abrupt
                   ? plant::PlantConfig::parasol()
                   : plant::PlantConfig::smoothParasol();
      case PlantVariant::Evaporative:
        return plant::PlantConfig::smoothParasolEvaporative();
      case PlantVariant::Chiller:
        return plant::PlantConfig::smoothParasolChiller();
    }
    util::panic("plantConfigFor: unknown plant variant");
}

std::unique_ptr<plant::Plant>
makePlant(const ExperimentSpec &spec)
{
    return std::make_unique<plant::Plant>(plantConfigFor(spec), spec.seed);
}

cooling::RegimeMenu
regimeMenuFor(const ExperimentSpec &spec)
{
    if (spec.variant == PlantVariant::Evaporative)
        return cooling::RegimeMenu::smoothWithEvaporative();
    return spec.style == cooling::ActuatorStyle::Abrupt
               ? cooling::RegimeMenu::parasol()
               : cooling::RegimeMenu::smooth();
}

const model::LearnedBundle &
bundleFor(const ExperimentSpec &spec)
{
    return spec.variant == PlantVariant::Evaporative
               ? sharedEvaporativeBundle()
               : sharedBundle();
}

core::Version
systemVersion(SystemId id)
{
    switch (id) {
      case SystemId::Temperature:   return core::Version::Temperature;
      case SystemId::Variation:    return core::Version::Variation;
      case SystemId::Energy:       return core::Version::Energy;
      case SystemId::AllNd:        return core::Version::AllNd;
      case SystemId::AllDef:       return core::Version::AllDef;
      case SystemId::VarLowRecirc: return core::Version::VarLowRecirc;
      case SystemId::VarHighRecirc: return core::Version::VarHighRecirc;
      case SystemId::EnergyDef:    return core::Version::EnergyDef;
      case SystemId::Baseline:
        break;
    }
    util::panic("systemVersion: baseline has no CoolAir version");
}

core::CoolAirConfig
coolairConfigFor(const ExperimentSpec &spec)
{
    core::CoolAirConfig config = core::CoolAirConfig::forVersion(
        systemVersion(spec.system), regimeMenuFor(spec), spec.maxTempC);
    if (spec.bandWidthC)
        config.band.widthC = *spec.bandWidthC;
    if (spec.bandOffsetC)
        config.band.offsetC = *spec.bandOffsetC;
    if (spec.switchPenalty)
        config.utility.switchPenalty = *spec.switchPenalty;
    if (spec.sleepDecayPerEpoch)
        config.compute.sleepDecayPerEpoch = *spec.sleepDecayPerEpoch;
    if (spec.horizonSteps)
        config.horizonSteps = *spec.horizonSteps;
    return config;
}

workload::Trace
traceForSpec(const ExperimentSpec &spec)
{
    workload::TraceGenConfig tg;
    tg.seed = spec.seed;
    workload::Trace trace;
    switch (spec.workload) {
      case WorkloadKind::Facebook:
      case WorkloadKind::FacebookProfile:
        trace = workload::facebookTrace(tg);
        break;
      case WorkloadKind::Nutch:
        trace = workload::nutchTrace(tg);
        break;
      case WorkloadKind::SteadyHalf:
        trace = workload::steadyTrace(0.5, tg);
        break;
    }
    if (systemIsDeferrable(spec.system))
        trace.makeDeferrable(6.0);  // §5.1: 6-hour start deadlines
    return trace;
}

std::unique_ptr<workload::WorkloadModel>
makeWorkload(const ExperimentSpec &spec)
{
    workload::ClusterConfig cc;
    if (spec.workload == WorkloadKind::FacebookProfile)
        return std::make_unique<workload::ProfileWorkload>(
            cc, sharedFacebookProfile());
    return std::make_unique<workload::ClusterSim>(cc, traceForSpec(spec));
}

std::unique_ptr<Controller>
makeController(const ExperimentSpec &spec,
               environment::Forecaster *forecaster)
{
    if (spec.system == SystemId::Baseline) {
        cooling::TksConfig tks = cooling::TksConfig::extendedBaseline();
        tks.setpointC = spec.maxTempC;
        return std::make_unique<BaselineController>(tks);
    }
    return std::make_unique<CoolAirController>(
        coolairConfigFor(spec), bundleFor(spec), forecaster,
        systemName(spec.system));
}

// ---------------------------------------------------------------------------
// Run assembly and finalization.
// ---------------------------------------------------------------------------

RunParts
assembleRun(const ExperimentSpec &spec, std::unique_ptr<Controller> controller,
            const std::optional<MetricsConfig> &metrics_config)
{
    RunParts parts;
    parts.climate = std::make_unique<environment::Climate>(
        spec.location.makeClimate(spec.seed));

    // The cache memoizes exact samples on the day-grid shared by the
    // engine loop and the forecaster's hourly queries; a physics step
    // with no integral grid falls back to the raw climate.
    int64_t grid = environment::weatherCacheGridStepS(spec.physicsStepS);
    if (spec.weatherCache && grid > 0)
        parts.cache = std::make_unique<environment::CachedWeatherProvider>(
            *parts.climate, grid);

    parts.forecaster = std::make_unique<environment::Forecaster>(
        parts.weather(), spec.forecastError, spec.seed);

    parts.workload = makeWorkload(spec);

    parts.controller = controller
                           ? std::move(controller)
                           : makeController(spec, parts.forecaster.get());

    MetricsConfig mc;
    if (metrics_config)
        mc = *metrics_config;
    else
        mc.maxTempC = spec.maxTempC;
    parts.metrics = std::make_unique<MetricsCollector>(
        mc, plantConfigFor(spec).numPods);
    return parts;
}

namespace {

/** Every component counter of a finished run, into @p reg. */
void
harvestStats(const RunPlan &plan, const RunParts &parts,
             const RunCounters &counters, obs::StatsRegistry &reg)
{
    if (parts.cache) {
        environment::CachedWeatherProvider::CacheStats cs =
            parts.cache->cacheStats();
        reg.counter("weather.cache.hits", "grid queries served from memo")
            .add(cs.hits);
        reg.counter("weather.cache.misses", "grid queries that evaluated")
            .add(cs.misses);
        reg.counter("weather.cache.evictions", "day blocks recycled (LRU)")
            .add(cs.evictions);
        reg.counter("weather.cache.passthrough",
                    "off-grid or cache-disabled queries")
            .add(cs.passthrough);
        reg.counter("weather.underlying_evals",
                    "climate-model evaluations actually performed")
            .add(parts.cache->underlyingEvals());
    }

    parts.controller->addStats(reg);

    reg.counter("engine.steps", "physics steps taken").add(counters.steps);
    reg.counter("engine.samples", "collected metric samples")
        .add(counters.samples);
    reg.counter("engine.control_epochs", "controller invocations")
        .add(counters.controlEpochs);
    reg.counter("engine.regime_transitions", "commanded regime changes")
        .add(counters.regimeTransitions);
    reg.counter("engine.ac_minutes",
                "collected simulated minutes in AC mode")
        .add(counters.acSamples * plan.sampleIntervalS / 60);

    reg.counter("metrics.violation_minutes",
                "simulated minutes with max inlet above the desired max")
        .add(parts.metrics->violationSamples() * plan.sampleIntervalS / 60);
}

} // anonymous namespace

ExperimentResult
finishRun(const ExperimentSpec &spec, const RunPlan &plan,
          const RunParts &parts, const RunCounters &counters,
          double wall_seconds, const ReportStatsSource &report_source)
{
    ExperimentResult result;
    result.system = parts.metrics->summary();
    result.outside = parts.metrics->outsideSummary();

    const bool want_report = !spec.reportJsonPath.empty();
    if (obs::enabled() || want_report) {
        obs::StatsRegistry local;
        harvestStats(plan, parts, counters, local);
        if (obs::enabled())
            obs::registry().merge(local);
        if (want_report) {
            // Report-only extras fold in after the global merge, so their
            // owner can publish them to obs::registry() itself without
            // double counting.
            if (report_source)
                report_source(local);
            // Exact simulated span, warm-ups included: every physics step
            // advances the clock by one step.
            obs::RunReport report =
                makeRunReport(spec, result, wall_seconds,
                              double(counters.steps) * spec.physicsStepS);
            std::ofstream os(spec.reportJsonPath);
            if (!os)
                throw std::runtime_error("cannot open report JSON path: " +
                                         spec.reportJsonPath);
            obs::writeRunReport(os, report, local);
        }
    }

    if (!spec.traceJsonPath.empty()) {
        std::ofstream os(spec.traceJsonPath);
        if (!os)
            throw std::runtime_error("cannot open trace JSON path: " +
                                     spec.traceJsonPath);
        obs::Tracer::instance().writeJson(os);
    }
    return result;
}

// ---------------------------------------------------------------------------
// Scenario.
// ---------------------------------------------------------------------------

ExperimentResult
Scenario::run(const ReportStatsSource &report_source)
{
    const auto t0 = std::chrono::steady_clock::now();
    {
        obs::Span span("scenario.run");
        for (const RunSegment &segment : _plan.segments)
            _engine->runSegment(segment);
    }
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    return finishRun(_spec, _plan, _parts, _engine->counters(), wall,
                     report_source);
}

obs::RunReport
makeRunReport(const ExperimentSpec &spec, const ExperimentResult &result,
              double wall_seconds, double sim_seconds)
{
    obs::RunReport report;
    report.specText = formatSpec(spec);
    report.seed = spec.seed;
    report.wallSeconds = wall_seconds;
    report.simSeconds = sim_seconds;

    const Summary &s = result.system;
    report.metrics = {
        {"avg_violation_c", s.avgViolationC},
        {"avg_worst_daily_range_c", s.avgWorstDailyRangeC},
        {"min_worst_daily_range_c", s.minWorstDailyRangeC},
        {"max_worst_daily_range_c", s.maxWorstDailyRangeC},
        {"pue", s.pue},
        {"it_kwh", s.itKwh},
        {"cooling_kwh", s.coolingKwh},
        {"humidity_violation_frac", s.humidityViolationFrac},
        {"rate_violation_frac", s.rateViolationFrac},
        {"avg_max_inlet_c", s.avgMaxInletC},
        {"days", double(s.days)},
    };
    return report;
}

// ---------------------------------------------------------------------------
// ScenarioBuilder.
// ---------------------------------------------------------------------------

ScenarioBuilder::ScenarioBuilder(ExperimentSpec spec)
    : _spec(std::move(spec))
{
}

ScenarioBuilder &
ScenarioBuilder::withController(std::unique_ptr<Controller> controller)
{
    _controller = std::move(controller);
    return *this;
}

ScenarioBuilder &
ScenarioBuilder::withMetricsConfig(const MetricsConfig &config)
{
    _metricsConfig = config;
    return *this;
}

ScenarioBuilder &
ScenarioBuilder::withTraceSink(TraceSink sink)
{
    _sinks.push_back(std::move(sink));
    return *this;
}

std::unique_ptr<Scenario>
ScenarioBuilder::build()
{
    auto scenario = std::unique_ptr<Scenario>(new Scenario());
    scenario->_plan = RunPlan::forSpec(_spec);
    scenario->_spec = _spec;

    // A trace export request turns the process-wide tracer on for the
    // whole run (spans recorded by any component from here on).
    if (!_spec.traceJsonPath.empty())
        obs::Tracer::instance().setEnabled(true);

    // Assembly order: plant first, then the shared parts.
    scenario->_plant = makePlant(_spec);
    scenario->_parts =
        assembleRun(_spec, std::move(_controller), _metricsConfig);

    EngineConfig ec;
    ec.physicsStepS = _spec.physicsStepS;
    ec.sampleIntervalS = scenario->_plan.sampleIntervalS;
    const RunParts &parts = scenario->_parts;
    scenario->_engine = std::make_unique<Engine>(
        *scenario->_plant, *parts.workload, *parts.controller,
        parts.weather(), ec);
    scenario->_engine->setMetrics(parts.metrics.get());

    if (!_spec.traceCsvPath.empty()) {
        scenario->_csv =
            std::make_unique<std::ofstream>(_spec.traceCsvPath);
        if (!*scenario->_csv)
            throw std::runtime_error("Scenario: cannot open trace CSV path: " +
                                     _spec.traceCsvPath);
        writeTraceCsvHeader(*scenario->_csv);
        _sinks.push_back(makeCsvTraceSink(*scenario->_csv));
    }
    // The engine takes one sink; fan out to all registered ones.
    if (!_sinks.empty())
        scenario->_engine->setTraceSink(
            [sinks = std::move(_sinks)](const TraceRow &row) {
                for (const TraceSink &sink : sinks)
                    sink(row);
            });

    return scenario;
}

// ---------------------------------------------------------------------------
// Experiment entry points.
// ---------------------------------------------------------------------------

ExperimentResult
runExperiment(const ExperimentSpec &spec)
{
    // A cache-enabled spec consults the persistent result store first.
    // This standalone path owns its store for the call, so it publishes
    // the store's counters globally itself; sweeps go through
    // ExperimentRunner, which shares stores across jobs and publishes
    // once at the end.
    if (resultCacheUsable(spec)) {
        store::ResultStore st = openResultStore(spec.cacheDirPath);
        ExperimentResult result = runExperimentCached(spec, st);
        if (obs::enabled())
            st.addStats(obs::registry());
        return result;
    }
    return runUncached(spec);
}

ExperimentResult
runUncached(const ExperimentSpec &spec, const ReportStatsSource &report_source)
{
    // batch= routes through the lane-batched engine (a one-lane batch
    // here; sweeps group lanes in ExperimentRunner).  Opt-in only: the
    // batched path carries a tolerance contract, not bit-identity.
    if (spec.batch > 0)
        return runBatchedExperiment(spec, report_source);
    return ScenarioBuilder(spec).build()->run(report_source);
}

// ---------------------------------------------------------------------------
// Real-Sim / Smooth-Sim.
// ---------------------------------------------------------------------------

ModelSimScenario
buildModelSimScenario(const ExperimentSpec &spec)
{
    ModelSimScenario ms;
    static_cast<RunParts &>(ms) = assembleRun(spec);
    ms.spec = spec;
    ms.plant = std::make_unique<ModelPlant>(&bundleFor(spec).model,
                                            plantConfigFor(spec), spec.seed);
    EngineConfig ec;
    ec.physicsStepS = ms.plant->stepS();
    ec.sampleIntervalS = int64_t(ms.plant->stepS());
    ms.engine = std::make_unique<Engine>(*ms.plant, *ms.workload,
                                         *ms.controller, ms.weather(), ec);
    ms.engine->setMetrics(ms.metrics.get());
    return ms;
}

void
ModelSimScenario::runDay(int day_of_year)
{
    const util::SimTime start = util::SimTime::fromCalendar(day_of_year, 0);
    engine->startSegment(start);
    engine->runRange(start, start + util::kSecondsPerDay, /*collect=*/true);
}

} // namespace sim
} // namespace coolair
