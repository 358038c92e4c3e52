#include "sim/engine.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/trace.hpp"

namespace coolair {
namespace sim {

Engine::Engine(plant::PlantModel &plant, workload::WorkloadModel &workload,
               Controller &controller, const environment::WeatherProvider &climate,
               const EngineConfig &config)
    : _plant(plant),
      _workload(workload),
      _controller(controller),
      _climate(climate),
      _config(config)
{
    // The range check keeps the integer cast defined; the integral and
    // multiple checks keep every sample on a physics step.
    if (!(config.sampleIntervalS > 0 && config.physicsStepS >= 1.0 &&
          config.physicsStepS <= double(config.sampleIntervalS)) ||
        config.physicsStepS != std::floor(config.physicsStepS) ||
        config.sampleIntervalS % int64_t(config.physicsStepS) != 0)
        throw std::invalid_argument("Engine: sample interval must be a "
                                    "multiple of the physics step");
    _command = cooling::Regime::closed();
}

void
Engine::refreshLoad()
{
    const uint64_t v = _workload.loadVersion();
    if (v == 0 || v != _loadVersion) {
        _workload.podLoadInto(_load);
        _loadVersion = v;
    }
}

void
Engine::sample(util::SimTime now, bool collect,
               const environment::WeatherSample &outside)
{
    _plant.readSensors(_sensors);
    _sensors.time = now;

    // Controller epoch?
    if (now.seconds() >= _nextControlS) {
        workload::WorkloadStatus status = _workload.status();
        refreshLoad();
        ControlDecision decision =
            _controller.control(_sensors, status, _load, now);
        ++_counters.controlEpochs;
        if (!(decision.regime == _command))
            ++_counters.regimeTransitions;
        _command = decision.regime;
        if (decision.hasPlan)
            _workload.applyPlan(decision.plan);
        _nextControlS = now.seconds() + _controller.epochS();
    }

    if (!collect)
        return;

    ++_counters.samples;
    if (_sensors.cooling.mode == cooling::Mode::AirConditioning)
        ++_counters.acSamples;

    if (_metrics) {
        _metrics->record(now, _sensors, double(_config.sampleIntervalS),
                         outside.tempC);
    }

    if (_sink) {
        TraceRow row;
        row.time = now;
        row.outsideC = outside.tempC;
        row.outsideRhPercent = outside.rhPercent;
        double lo = 1e9, hi = -1e9;
        for (double t : _sensors.podInletC) {
            lo = std::min(lo, t);
            hi = std::max(hi, t);
        }
        row.inletMinC = lo;
        row.inletMaxC = hi;
        row.hotAisleC = _sensors.hotAisleC;
        row.coldAisleRhPercent = _sensors.coldAisleRhPercent;
        row.mode = _sensors.cooling.mode;
        row.fcFanSpeed = _sensors.cooling.fcFanSpeed;
        row.compressorSpeed = _sensors.cooling.compressorSpeed;
        row.itPowerW = _sensors.itPowerW;
        row.coolingPowerW = _sensors.coolingPowerW;
        double dlo = 1e9, dhi = -1e9;
        for (double d : _sensors.podDiskC) {
            dlo = std::min(dlo, d);
            dhi = std::max(dhi, d);
        }
        row.diskMinC = dlo;
        row.diskMaxC = dhi;
        row.dcUtilization = _sensors.dcUtilization;
        _sink(row);
    }
}

void
Engine::startSegment(util::SimTime at)
{
    _plant.initializeSteadyState(_climate.sample(at));
    _nextControlS = at.seconds();
}

void
Engine::step(util::SimTime now, bool sample_tick, bool collect)
{
    ++_counters.steps;
    // One weather evaluation serves the metrics/trace sample and the
    // physics step at this instant.
    const environment::WeatherSample outside = _climate.sample(now);
    if (sample_tick)
        sample(now, collect, outside);

    const double dt = _config.physicsStepS;
    _workload.step(now, dt);
    refreshLoad();
    _plant.step(dt, outside, _load, _command);
}

void
Engine::runRange(util::SimTime start, util::SimTime end, bool collect)
{
    const int64_t step_s = int64_t(_config.physicsStepS);
    for (int64_t t = start.seconds(); t < end.seconds(); t += step_s)
        step(util::SimTime(t),
             (t - start.seconds()) % _config.sampleIntervalS == 0, collect);
}

void
Engine::runSegment(const RunSegment &segment)
{
    obs::Span span("engine.runDay");
    const util::SimTime warm_start(segment.warmStartS);
    const util::SimTime start(segment.startS);

    startSegment(warm_start);
    runRange(warm_start, start, /*collect=*/false);
    runRange(start, util::SimTime(segment.endS), /*collect=*/true);
}

} // namespace sim
} // namespace coolair
