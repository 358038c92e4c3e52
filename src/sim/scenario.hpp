#ifndef COOLAIR_SIM_SCENARIO_HPP
#define COOLAIR_SIM_SCENARIO_HPP

/**
 * @file
 * The scenario layer: one run lifecycle from a declarative
 * ExperimentSpec, shared by the scalar and the batched engine:
 *
 *  1. plan      — RunPlan::forSpec validates the spec and lists the
 *                 segments to step (sim/run_plan.hpp);
 *  2. assembly  — assembleRun builds the per-run parts (climate, weather
 *                 provider, forecaster, workload, controller, metrics);
 *  3. stepper   — Engine or BatchedEngine steps the plan's segments;
 *  4. finalizer — finishRun produces the summary, harvests the counters
 *                 and writes the RunReport.
 *
 * Every harness — the year experiments, the figure benches, the
 * examples, the Real-Sim stack, the multizone driver — goes through
 * the factories or the ScenarioBuilder here, so an experiment is
 * described by *data* (a spec, serializable via sim/spec_io.hpp) rather
 * than by bespoke construction code.  Harnesses that need a nonstandard piece (a fixed
 * regime, an extra trace sink, custom metrics) override just that piece
 * on the builder and inherit everything else.
 */

#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "environment/weather_cache.hpp"
#include "obs/report.hpp"
#include "sim/engine.hpp"
#include "sim/experiment.hpp"
#include "sim/model_plant.hpp"
#include "sim/run_plan.hpp"
#include "workload/job.hpp"

namespace coolair {
namespace sim {

// ---------------------------------------------------------------------------
// Component factories: each builds one piece of the stack from a spec.
// ---------------------------------------------------------------------------

/** Plant hardware constants for the spec's style and variant. */
plant::PlantConfig plantConfigFor(const ExperimentSpec &spec);

/** A physics plant seeded per the spec. */
std::unique_ptr<plant::Plant> makePlant(const ExperimentSpec &spec);

/** The regime menu of the spec's installed cooling units. */
cooling::RegimeMenu regimeMenuFor(const ExperimentSpec &spec);

/**
 * The learned bundle a CoolAir controller would use for this spec
 * (the memoized evaporative bundle for that variant, the shared abrupt
 * Parasol bundle otherwise; see sharedBundle()).
 */
const model::LearnedBundle &bundleFor(const ExperimentSpec &spec);

/**
 * The CoolAir version behind a system id.
 * Panics for SystemId::Baseline, which has no CoolAir version.
 */
core::Version systemVersion(SystemId id);

/**
 * The CoolAir configuration for a (non-baseline) spec: the Table 1
 * version preset, with any of the spec's tuning overrides (band width,
 * band offset, switch penalty, sleep decay, horizon) applied on top.
 */
core::CoolAirConfig coolairConfigFor(const ExperimentSpec &spec);

/**
 * The day-long task trace for the spec's workload kind, seeded per the
 * spec and made deferrable when the system defers jobs (§5.1: 6-hour
 * start deadlines).
 */
workload::Trace traceForSpec(const ExperimentSpec &spec);

/** The workload model (task-level cluster sim or utilization profile). */
std::unique_ptr<workload::WorkloadModel>
makeWorkload(const ExperimentSpec &spec);

/**
 * The controller for the spec's system: the extended-TKS baseline, or
 * CoolAir configured by coolairConfigFor() on bundleFor()'s bundle.
 * @p forecaster may be null only for the baseline.
 */
std::unique_ptr<Controller>
makeController(const ExperimentSpec &spec,
               environment::Forecaster *forecaster);

// ---------------------------------------------------------------------------
// Run assembly and finalization, shared by both engines.
// ---------------------------------------------------------------------------

/**
 * Folds extra stats — e.g. the result store's counters — into a
 * RunReport's registry.  Never fed to obs::registry(): whoever owns the
 * underlying counters publishes them globally exactly once (the runner
 * after a sweep, runExperiment after a standalone run).
 */
using ReportStatsSource = std::function<void(obs::StatsRegistry &)>;

/**
 * The per-run parts every engine consumes.  Parts refer to each other
 * through their heap addresses, so the bundle stays valid when moved.
 */
struct RunParts
{
    std::unique_ptr<environment::Climate> climate;
    /** Grid memo over climate; null when spec.weatherCache is off or the
        physics step admits no grid. */
    std::unique_ptr<environment::CachedWeatherProvider> cache;
    std::unique_ptr<environment::Forecaster> forecaster;
    std::unique_ptr<workload::WorkloadModel> workload;
    std::unique_ptr<Controller> controller;
    std::unique_ptr<MetricsCollector> metrics;

    /** The provider the forecaster and the scalar engine consume: the
        grid cache when present, the raw climate otherwise. */
    const environment::WeatherProvider &weather() const
    {
        return cache ? static_cast<const environment::WeatherProvider &>(
                           *cache)
                     : *climate;
    }
};

/**
 * Build @p spec's parts in the canonical order (climate, cache,
 * forecaster, workload, controller, metrics).  @p controller and
 * @p metrics_config replace the spec-derived piece when set.
 */
RunParts assembleRun(const ExperimentSpec &spec,
                     std::unique_ptr<Controller> controller = nullptr,
                     const std::optional<MetricsConfig> &metrics_config = {});

/**
 * Finish a stepped run: the summary metrics, plus — only when
 * obs::enabled() or a RunReport is requested, so it cannot perturb the
 * simulation — the harvested counters (weather cache, controller,
 * engine, metrics) merged into obs::registry() and written with
 * @p report_source's extras to spec.reportJsonPath.  Also exports the
 * tracer when spec.traceJsonPath is set.
 *
 * @throws std::runtime_error if an output path cannot be opened.
 */
ExperimentResult finishRun(const ExperimentSpec &spec, const RunPlan &plan,
                           const RunParts &parts, const RunCounters &counters,
                           double wall_seconds,
                           const ReportStatsSource &report_source);

/**
 * Run @p spec uncached on the engine its batch key selects: the scalar
 * oracle at batch = 0, a one-lane BatchedEngine otherwise.
 * @p report_source, when set, folds extra stats into the RunReport.
 */
ExperimentResult runUncached(const ExperimentSpec &spec,
                             const ReportStatsSource &report_source = {});

// ---------------------------------------------------------------------------
// Scenario: an assembled, runnable experiment.
// ---------------------------------------------------------------------------

/**
 * A fully assembled experiment stack.  Owns every component, so the
 * engine's references stay valid for the scenario's lifetime.  Build
 * one with ScenarioBuilder; run it with run() (which steps the spec's
 * RunPlan), or drive engine() by hand for custom protocols.
 */
class Scenario
{
  public:
    /**
     * Step the spec's RunPlan and return finishRun()'s result, with
     * @p report_source's extras in the RunReport.  Call once: counters
     * are lifetime totals.
     */
    ExperimentResult run(const ReportStatsSource &report_source = {});

    Controller &controller() { return *_parts.controller; }
    Engine &engine() { return *_engine; }

  private:
    friend class ScenarioBuilder;
    Scenario() = default;

    ExperimentSpec _spec;
    RunPlan _plan;
    std::unique_ptr<plant::Plant> _plant;
    RunParts _parts;
    std::unique_ptr<Engine> _engine;
    std::unique_ptr<std::ofstream> _csv;
};

/**
 * Assembles a Scenario from a spec, with optional component overrides.
 *
 * ScenarioBuilder(spec).build() reproduces the §5.1 stack exactly;
 * overrides swap one piece while the rest still comes from the spec:
 *
 *     auto scenario = ScenarioBuilder(spec)
 *                         .withController(std::make_unique<
 *                             FixedRegimeController>(regime))
 *                         .build();
 */
class ScenarioBuilder
{
  public:
    explicit ScenarioBuilder(ExperimentSpec spec);

    /** Replace the spec-derived controller. */
    ScenarioBuilder &withController(std::unique_ptr<Controller> controller);

    /** Replace the default metrics configuration. */
    ScenarioBuilder &withMetricsConfig(const MetricsConfig &config);

    /** Add a trace sink (fan-out; the CSV sink coexists with these). */
    ScenarioBuilder &withTraceSink(TraceSink sink);

    /**
     * Assemble the stack.
     * @throws std::invalid_argument for an unrunnable spec (any key
     *         outside its validateSpec domain).
     * @throws std::runtime_error if spec.traceCsvPath cannot be opened.
     */
    std::unique_ptr<Scenario> build();

  private:
    ExperimentSpec _spec;
    std::unique_ptr<Controller> _controller;
    std::optional<MetricsConfig> _metricsConfig;
    std::vector<TraceSink> _sinks;
};

/**
 * The RunReport skeleton every report writer shares: canonical spec
 * text, seed, timings, and the headline metric block in its canonical
 * order.  The scenario layer uses it for end-of-run reports; the result
 * cache uses it for cache-hit reports.
 */
obs::RunReport makeRunReport(const ExperimentSpec &spec,
                             const ExperimentResult &result,
                             double wall_seconds, double sim_seconds);

// ---------------------------------------------------------------------------
// Real-Sim / Smooth-Sim assembly (the Figure 6/7 validation stack).
// ---------------------------------------------------------------------------

/**
 * A learned-model simulation stack over the same assembleRun() parts as
 * the physics Scenario, for the paper's real-vs-simulation validation:
 * an Engine over a ModelPlant, whose physics step and sample interval
 * are both the model step.  Members are exposed directly: these studies
 * attach trace sinks or drive the engine by hand.
 */
struct ModelSimScenario : RunParts
{
    ExperimentSpec spec;
    std::unique_ptr<ModelPlant> plant;
    std::unique_ptr<Engine> engine;

    /**
     * Measure @p day_of_year from a steady-state start at its first
     * instant (the physics plant's start state, no warm-up).
     */
    void runDay(int day_of_year);
};

/** Build the Real-Sim/Smooth-Sim counterpart of a spec's scenario. */
ModelSimScenario buildModelSimScenario(const ExperimentSpec &spec);

} // namespace sim
} // namespace coolair

#endif // COOLAIR_SIM_SCENARIO_HPP
