#include "plant/parasol.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/logging.hpp"
#include "util/stats.hpp"

namespace coolair {
namespace plant {

using physics::kAirDensity;
using physics::kAirSpecificHeat;

namespace {

/** Volumetric heat-capacity flow [W/K] for a volume flow [m^3/s]. */
double
flowConductance(double m3_per_s)
{
    return m3_per_s;  // conductances are kept in m^3/s-equivalent units
}

/** Convert a W/K conductance into the same m^3/s-equivalent units. */
double
uaToFlow(double w_per_k)
{
    return w_per_k / (kAirDensity * kAirSpecificHeat);
}

/**
 * Relax @p value toward @p target with total conductance @p g [m^3/s]
 * acting on an effective volume @p volume [m^3] over @p dt_s seconds.
 * Exact for the frozen-coefficient linear node, stable for any step.
 */
} // anonymous namespace

PodLoad
PodLoad::uniform(int pods, int servers_per_pod, double util)
{
    PodLoad load;
    load.serversPerPod = servers_per_pod;
    load.activeServers.assign(pods, servers_per_pod);
    load.utilization.assign(pods, util::clamp(util, 0.0, 1.0));
    return load;
}

double
PodLoad::podPowerFraction(int pod) const
{
    if (pod < 0 || pod >= int(activeServers.size()))
        util::panic("PodLoad::podPowerFraction: pod out of range");
    int act = std::clamp(activeServers[size_t(pod)], 0, serversPerPod);
    double u = util::clamp(utilization[size_t(pod)], 0.0, 1.0);
    double watts = double(act) * (22.0 + 8.0 * u) +
                   double(serversPerPod - act) * 2.0;
    return watts / (double(serversPerPod) * 30.0);
}

PlantConfig
PlantConfig::parasol()
{
    PlantConfig c;
    // Recirculation exposure grades across the container: pods near the
    // free-cooling unit see the least recirculation; pods at the far end
    // near the AC duct and partition gaps see the most (Figure 4).
    c.podRecirc = {0.15, 0.24, 0.36, 0.50, 0.60, 0.74, 0.88, 1.00};
    c.controlPod = 7;
    c.actuators.style = cooling::ActuatorStyle::Abrupt;
    return c;
}

PlantConfig
PlantConfig::smoothParasol()
{
    PlantConfig c = parasol();
    c.actuators.style = cooling::ActuatorStyle::Smooth;
    return c;
}

PlantConfig
PlantConfig::smoothParasolEvaporative()
{
    PlantConfig c = smoothParasol();
    c.hasEvaporativeCooler = true;
    return c;
}

PlantConfig
PlantConfig::smoothParasolChiller()
{
    PlantConfig c = smoothParasol();
    // Chilled-water loop: more capacity at a far better COP than the DX
    // unit (COP ~3.5 vs ~1.5), with an air handler instead of the DX fan.
    c.acCapacityW = 5000.0;
    c.actuators.power.acFullW = 1400.0;
    c.actuators.power.acFanOnlyW = 200.0;
    return c;
}

Plant::Plant(const PlantConfig &config, uint64_t seed)
    : _config(config),
      _actuators(config.actuators),
      _sensorRng(seed, "plant.sensors"),
      _podTempC(config.numPods, 22.0),
      _podTempScratchC(config.numPods, 0.0),
      _diskTempC(config.numPods, 30.0),
      _hotAisleC(30.0),
      _massTempC(23.0),
      _coldAbsHumidity(8.0),
      _podRelaxExp(size_t(std::max(config.numPods, 0))),
      _acCoilAbsHumidity(physics::absoluteHumidity(config.acCoilC, 100.0))
{
    if (config.numPods <= 0 || config.serversPerPod <= 0)
        util::fatal("PlantConfig: pods and servers must be positive");
    if (int(config.podRecirc.size()) != config.numPods)
        util::fatal("PlantConfig: podRecirc must have one entry per pod");
    if (config.controlPod < 0 || config.controlPod >= config.numPods)
        util::fatal("PlantConfig: controlPod out of range");
}

void
Plant::initializeSteadyState(const environment::WeatherSample &outside,
                             double inside_offset_c)
{
    for (int i = 0; i < _config.numPods; ++i) {
        double grade = _config.podRecirc[i] * 2.0;
        _podTempC[i] = outside.tempC + inside_offset_c + grade;
    }
    _hotAisleC = outside.tempC + inside_offset_c + 9.0;
    _massTempC = outside.tempC + inside_offset_c + 2.0;
    _coldAbsHumidity = outside.absHumidity;
    for (int i = 0; i < _config.numPods; ++i)
        _diskTempC[i] = _podTempC[i] + _config.diskOffsetIdleC + 5.0;
    _lastOutside = outside;
}

void
Plant::updateItPower(const PodLoad &load)
{
    if (int(load.activeServers.size()) != _config.numPods ||
        int(load.utilization.size()) != _config.numPods) {
        util::panic("Plant::step: PodLoad arity != numPods");
    }
    // resize, not assign: every element is overwritten below, so the
    // zero-fill was pure waste once the buffers reached size.
    _podPowerW.resize(size_t(_config.numPods));
    _podAwake.resize(size_t(_config.numPods));
    double power = 0.0;
    int awake = 0;
    for (int i = 0; i < _config.numPods; ++i) {
        int act = std::clamp(load.activeServers[i], 0,
                             _config.serversPerPod);
        double util_i = util::clamp(load.utilization[i], 0.0, 1.0);
        double pod_power =
            double(act) *
                (_config.serverIdleW + _config.serverBusySpanW * util_i) +
            double(_config.serversPerPod - act) * _config.serverSleepW;
        _podPowerW[size_t(i)] = pod_power;
        _podAwake[size_t(i)] = act;
        power += pod_power;
        awake += act;
    }
    _itPowerW = power;
    _dcUtilization = double(awake) / double(_config.totalServers());
}

void
Plant::step(double dt_s, const environment::WeatherSample &outside,
            const PodLoad &load, const cooling::Regime &command)
{
    if (dt_s <= 0.0)
        util::panic("Plant::step: dt must be positive");

    _actuators.setCommand(command);
    _actuators.step(dt_s);
    updateItPower(load);

    stepThermal(dt_s, outside, load);
    stepHumidity(dt_s, outside);
    stepDisks(dt_s, load);

    _lastOutside = outside;
    _now += int64_t(dt_s);
}

void
Plant::stepThermal(double dt_s, const environment::WeatherSample &outside,
                   const PodLoad &load)
{
    const auto &unit = _actuators.state();
    const int pods = _config.numPods;

    double q_fc = unit.damperOpen ? unit.fcFanSpeed * _config.maxFcAirflow
                                  : 0.0;
    double q_ac = unit.acFanSpeed * _config.acAirflow;

    // Intake air conditions: the adiabatic pre-cooler (when installed
    // and engaged) closes a fraction of the dry-bulb-to-wet-bulb gap.
    double intake_c = outside.tempC;
    if (_config.hasEvaporativeCooler && unit.evapOn && q_fc > 0.0) {
        double wb = physics::wetBulb(outside.tempC, outside.rhPercent);
        intake_c =
            outside.tempC - _config.evapEffectiveness *
                                (outside.tempC - wb);
    }

    // Recirculation collapses under the wind-tunnel effect of forced
    // airflow and is strongest when the container is sealed.
    double forced = (q_fc + q_ac) / std::max(_config.maxFcAirflow, 1e-9);
    double suppress = _suppressExp(-6.0 * forced);
    double recirc_total =
        _config.recircFlowOpen +
        (_config.recircFlowClosed - _config.recircFlowOpen) * suppress;

    double recirc_weight_sum = std::accumulate(
        _config.podRecirc.begin(), _config.podRecirc.end(), 0.0);

    // AC supply conditions: intake from the hot aisle, cooled by the
    // compressor; fan-only operation just circulates hot-aisle air.
    double ac_supply_c = _hotAisleC;
    if (unit.compressorSpeed > 0.0 && q_ac > 0.0) {
        double q_thermal = _config.acCapacityW * unit.compressorSpeed;
        double dT = q_thermal / (kAirDensity * kAirSpecificHeat * q_ac);
        ac_supply_c = std::max(_hotAisleC - dT, _config.acSupplyFloorC);
    }

    double wall_flow = uaToFlow(_config.wallUaWPerK);
    double mass_flow = uaToFlow(_config.massCouplingWPerK);

    // Local (own-exhaust) recirculation survives forced airflow better
    // than the global hot-aisle path: the leak is right over the rack.
    double local_suppress =
        _config.localRecircFloor +
        (1.0 - _config.localRecircFloor) * suppress;

    // --- Pod inlet nodes -------------------------------------------------
    double pod_temp_sum = 0.0;
    std::vector<double> &new_pod = _podTempScratchC;  // reused, no alloc
    for (int i = 0; i < pods; ++i) {
        double q_fc_i = q_fc / pods;
        double q_ac_i = q_ac / pods;
        double q_rec_i =
            recirc_total * _config.podRecirc[i] / recirc_weight_sum;
        double q_wall_i = wall_flow * 0.5 / pods;  // half the envelope
        double k_mass_i = mass_flow * 0.5 / pods;

        // Pod-local recirculation: part of this pod's own exhaust
        // returns to its inlet.  The exhaust temperature rides a
        // load-dependent delta above the inlet.
        double q_srv_i = _config.serverAirflow *
                         (double(_podAwake[size_t(i)]) +
                          0.2 * double(_config.serversPerPod -
                                       _podAwake[size_t(i)]));
        q_srv_i = std::max(q_srv_i, 0.002);
        double exhaust_dT = _podPowerW[size_t(i)] /
                            (kAirDensity * kAirSpecificHeat * q_srv_i);
        exhaust_dT = std::min(exhaust_dT, 30.0);
        double q_loc_i = _config.localRecircFraction * q_srv_i *
                         _config.podRecirc[i] * local_suppress;
        double exhaust_c = _podTempC[i] + exhaust_dT;

        double g = flowConductance(q_fc_i) + flowConductance(q_ac_i) +
                   flowConductance(q_rec_i) + flowConductance(q_loc_i) +
                   q_wall_i + k_mass_i;
        double target =
            (q_fc_i * intake_c + q_ac_i * ac_supply_c +
             q_rec_i * _hotAisleC + q_loc_i * exhaust_c +
             q_wall_i * outside.tempC + k_mass_i * _massTempC) /
            std::max(g, 1e-12);

        new_pod[i] = relax(_podTempC[i], target, g,
                           _config.podEffectiveVolume, dt_s,
                           _podRelaxExp[size_t(i)]);
        pod_temp_sum += _podTempC[i];
    }
    double cold_avg = pod_temp_sum / pods;

    // --- Hot aisle node ---------------------------------------------------
    int awake_total = 0;
    for (int i = 0; i < pods; ++i)
        awake_total += std::clamp(load.activeServers[i], 0,
                                  _config.serversPerPod);
    // Sleeping servers still pass some leakage airflow.
    double q_srv = _config.serverAirflow *
                   (double(awake_total) +
                    0.2 * double(_config.totalServers() - awake_total));
    q_srv = std::max(q_srv, 0.01);

    double q_wall_hot = wall_flow * 0.5;
    double k_mass_hot = mass_flow * 0.5;
    // When the damper is open, FC airflow flushes the hot aisle outside;
    // model as extra conductance to the *cold* side feeding through.
    double g_hot = q_srv + q_wall_hot + k_mass_hot;
    double heat_rise =
        _itPowerW / (kAirDensity * kAirSpecificHeat * g_hot);
    heat_rise = std::min(heat_rise, 45.0);  // physical cap (choked flow)
    double hot_target = (q_srv * cold_avg + q_wall_hot * outside.tempC +
                         k_mass_hot * _massTempC) /
                            g_hot +
                        heat_rise;
    _hotAisleC = relax(_hotAisleC, hot_target, g_hot,
                       _config.hotAisleEffectiveVolume, dt_s,
                       _hotRelaxExp);

    // --- Structural mass ----------------------------------------------------
    double air_avg = 0.5 * (cold_avg + _hotAisleC);
    double mass_g_wk = _config.massCouplingWPerK;
    double alpha = _massExp(-mass_g_wk * dt_s / _config.structuralMassJPerK);
    _massTempC = air_avg + (_massTempC - air_avg) * alpha;

    std::swap(_podTempC, _podTempScratchC);
}

void
Plant::stepHumidity(double dt_s, const environment::WeatherSample &outside)
{
    const auto &unit = _actuators.state();

    double q_fc = unit.damperOpen ? unit.fcFanSpeed * _config.maxFcAirflow
                                  : 0.0;
    double q_ac = unit.acFanSpeed * _config.acAirflow;
    double leak = _config.leakageFlow;

    // Evaporative pre-cooling adds moisture: intake air moves along the
    // (approximately constant) wet-bulb line toward saturation.
    double intake_abs = outside.absHumidity;
    if (_config.hasEvaporativeCooler && unit.evapOn && q_fc > 0.0) {
        double wb = physics::wetBulb(outside.tempC, outside.rhPercent);
        double intake_c =
            outside.tempC - _config.evapEffectiveness *
                                (outside.tempC - wb);
        double sat_at_wb = physics::absoluteHumidity(wb, 100.0);
        intake_abs = outside.absHumidity +
                     _config.evapEffectiveness *
                         (sat_at_wb - outside.absHumidity);
        intake_abs = std::min(
            intake_abs, physics::absoluteHumidity(intake_c, 100.0));
    }

    // AC dehumidifies when the coil runs below the air dew point: supply
    // air leaves saturated at the coil temperature (fixed by config, so
    // precomputed at construction).
    double coil_abs = _acCoilAbsHumidity;
    bool dehumidify = unit.compressorSpeed > 0.0 &&
                      _coldAbsHumidity > coil_abs;

    double g = q_fc + leak + (dehumidify ? q_ac * unit.compressorSpeed : 0.0);
    double target = 0.0;
    if (g > 0.0) {
        target = (q_fc * intake_abs + leak * outside.absHumidity +
                  (dehumidify ? q_ac * unit.compressorSpeed * coil_abs
                              : 0.0)) /
                 g;
    } else {
        target = _coldAbsHumidity;
    }
    _coldAbsHumidity = relax(_coldAbsHumidity, target, g,
                             _config.humidityVolume, dt_s,
                             _humidityRelaxExp);
}

void
Plant::stepDisks(double dt_s, const PodLoad &load)
{
    // The decay factor is pod-independent, so one memo covers the loop.
    double alpha = _diskExp(-dt_s / _config.diskTauS);
    for (int i = 0; i < _config.numPods; ++i) {
        double util_i = util::clamp(load.utilization[i], 0.0, 1.0);
        bool any_awake = load.activeServers[i] > 0;
        double offset = _config.diskOffsetIdleC +
                        _config.diskOffsetBusySpanC * util_i;
        if (!any_awake)
            offset = 1.0;  // spun-down disks idle just above air temp
        double target = _podTempC[i] + offset;
        _diskTempC[i] = target + (_diskTempC[i] - target) * alpha;
    }
}

void
Plant::readSensors(SensorReadings &out)
{
    out.time = _now;
    out.podInletC.resize(_config.numPods);
    for (int i = 0; i < _config.numPods; ++i) {
        out.podInletC[i] =
            _podTempC[i] + _sensorRng.normal(0.0, _config.sensorNoiseC);
    }
    if (_stuckSensorPod >= 0 && _stuckSensorPod < _config.numPods)
        out.podInletC[size_t(_stuckSensorPod)] = _stuckSensorValueC;

    double cold_avg = 0.0;
    for (double t : _podTempC)
        cold_avg += t;
    cold_avg /= double(_config.numPods);

    double rh = physics::relativeHumidity(cold_avg, _coldAbsHumidity);
    rh += _sensorRng.normal(0.0, _config.humiditySensorNoisePercent);
    out.coldAisleRhPercent = util::clamp(rh, 0.0, 100.0);
    out.coldAisleAbsHumidity =
        physics::absoluteHumidity(cold_avg, out.coldAisleRhPercent);

    out.hotAisleC = _hotAisleC + _sensorRng.normal(0.0, _config.sensorNoiseC);

    out.outsideC =
        _lastOutside.tempC + _sensorRng.normal(0.0, _config.sensorNoiseC);
    out.outsideRhPercent = util::clamp(
        _lastOutside.rhPercent +
            _sensorRng.normal(0.0, _config.humiditySensorNoisePercent),
        0.0, 100.0);
    out.outsideAbsHumidity =
        physics::absoluteHumidity(out.outsideC, out.outsideRhPercent);

    const auto &unit = _actuators.state();
    out.cooling.mode = unit.mode;
    out.cooling.fcFanSpeed = unit.fcFanSpeed;
    out.cooling.acFanSpeed = unit.acFanSpeed;
    out.cooling.compressorSpeed = unit.compressorSpeed;
    out.cooling.damperOpen = unit.damperOpen;
    out.cooling.evapOn = unit.evapOn;

    out.coolingPowerW = coolingPowerW();
    out.itPowerW = _itPowerW;
    out.dcUtilization = _dcUtilization;

    // Disk temperatures are digital readings: copied verbatim, no noise
    // draws, so the observable noise stream is unchanged by this field.
    out.podDiskC.assign(_diskTempC.begin(), _diskTempC.end());
}

double
Plant::truePodInletC(int pod) const
{
    if (pod < 0 || pod >= _config.numPods)
        util::panic("Plant::truePodInletC: pod out of range");
    return _podTempC[pod];
}

double
Plant::trueColdAisleRh() const
{
    double cold_avg = 0.0;
    for (double t : _podTempC)
        cold_avg += t;
    cold_avg /= double(_config.numPods);
    return physics::relativeHumidity(cold_avg, _coldAbsHumidity);
}

double
Plant::diskTempC(int pod) const
{
    if (pod < 0 || pod >= _config.numPods)
        util::panic("Plant::diskTempC: pod out of range");
    return _diskTempC[pod];
}

void
Plant::injectStuckSensor(int pod, double value_c)
{
    if (pod < 0 || pod >= _config.numPods)
        util::panic("Plant::injectStuckSensor: pod out of range");
    _stuckSensorPod = pod;
    _stuckSensorValueC = value_c;
}

void
Plant::clearSensorFaults()
{
    _stuckSensorPod = -1;
}

} // namespace plant
} // namespace coolair
