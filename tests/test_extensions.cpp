/**
 * @file
 * Tests for the extension features: the weather-provider abstraction,
 * wet-bulb psychrometrics, the evaporative pre-cooler,
 * the chilled-water backup variant, and sensor-fault injection.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "environment/location.hpp"
#include "environment/weather.hpp"
#include "physics/psychrometrics.hpp"
#include "plant/parasol.hpp"
#include "sim/engine.hpp"
#include "sim/experiment.hpp"
#include "workload/cluster.hpp"
#include "workload/trace_gen.hpp"

using namespace coolair;
using namespace coolair::environment;
using coolair::cooling::Regime;
using coolair::util::SimTime;

// ---------------------------------------------------------------------------
// Wet bulb
// ---------------------------------------------------------------------------

TEST(WetBulb, KnownPoints)
{
    // Stull's reference: T=20 C, RH=50 % -> Tw ~= 13.7 C.
    EXPECT_NEAR(physics::wetBulb(20.0, 50.0), 13.7, 0.5);
    // Saturated air: wet bulb equals dry bulb (within fit error).
    EXPECT_NEAR(physics::wetBulb(30.0, 99.0), 30.0, 0.6);
}

TEST(WetBulb, BelowDryBulbAndMonotoneInRh)
{
    for (double t = 5.0; t <= 45.0; t += 10.0) {
        double prev = physics::wetBulb(t, 10.0);
        EXPECT_LE(prev, t);
        for (double rh = 20.0; rh <= 90.0; rh += 10.0) {
            double wb = physics::wetBulb(t, rh);
            EXPECT_LE(wb, t + 1e-9);
            EXPECT_GE(wb, prev - 0.05);  // higher RH -> higher wet bulb
            prev = wb;
        }
    }
}

// ---------------------------------------------------------------------------
// Custom weather providers
// ---------------------------------------------------------------------------

namespace {

/** A user-supplied provider: constant 18 C / 55 % weather. */
class ConstantWeather : public WeatherProvider
{
  public:
    WeatherSample sample(SimTime) const override
    {
        WeatherSample w;
        w.tempC = 18.0;
        w.rhPercent = 55.0;
        w.absHumidity = physics::absoluteHumidity(18.0, 55.0);
        return w;
    }
};

} // anonymous namespace

TEST(CustomWeather, DrivesForecasterAndEngine)
{
    // Any WeatherProvider can stand in for the Climate.
    ConstantWeather weather;

    Forecaster forecaster(weather);
    Forecast fc = forecaster.fullDay(SimTime::fromCalendar(0, 0));
    ASSERT_EQ(fc.hours.size(), 24u);
    EXPECT_NEAR(fc.meanTempC(), 18.0, 1e-6);

    plant::Plant plant(plant::PlantConfig::smoothParasol(), 3);
    workload::ClusterSim cluster({}, workload::steadyTrace(0.3, {}));
    sim::BaselineController baseline;
    sim::MetricsCollector metrics({}, 8);
    sim::Engine engine(plant, cluster, baseline, weather);
    engine.setMetrics(&metrics);
    engine.runDay(1);
    EXPECT_EQ(metrics.summary().days, 1u);
}

// ---------------------------------------------------------------------------
// Evaporative pre-cooler
// ---------------------------------------------------------------------------

namespace {

environment::WeatherSample
weatherAt(double temp_c, double rh)
{
    environment::WeatherSample w;
    w.tempC = temp_c;
    w.rhPercent = rh;
    w.absHumidity = physics::absoluteHumidity(temp_c, rh);
    return w;
}

double
steadyInletUnder(const plant::PlantConfig &pc, const Regime &regime,
                 const environment::WeatherSample &w)
{
    plant::Plant plant(pc, 3);
    plant.initializeSteadyState(w, 6.0);
    plant::PodLoad load = plant::PodLoad::uniform(8, 8, 0.5);
    for (int i = 0; i < 360; ++i)
        plant.step(30.0, w, load, regime);
    double sum = 0.0;
    for (int p = 0; p < 8; ++p)
        sum += plant.truePodInletC(p);
    return sum / 8.0;
}

} // anonymous namespace

TEST(Evaporative, CoolsBelowDryFreeCoolingWhenArid)
{
    plant::PlantConfig pc = plant::PlantConfig::smoothParasolEvaporative();
    auto hot_dry = weatherAt(38.0, 15.0);
    double dry = steadyInletUnder(pc, Regime::freeCooling(1.0), hot_dry);
    double evap = steadyInletUnder(
        pc, Regime::freeCoolingEvaporative(1.0), hot_dry);
    // Wet bulb at 38 C / 15 % RH is ~17 C: large evaporative headroom.
    EXPECT_LT(evap, dry - 5.0);
}

TEST(Evaporative, NoBenefitWhenSaturated)
{
    plant::PlantConfig pc = plant::PlantConfig::smoothParasolEvaporative();
    auto hot_humid = weatherAt(32.0, 95.0);
    double dry = steadyInletUnder(pc, Regime::freeCooling(1.0), hot_humid);
    double evap = steadyInletUnder(
        pc, Regime::freeCoolingEvaporative(1.0), hot_humid);
    EXPECT_NEAR(evap, dry, 1.0);
}

TEST(Evaporative, RaisesInsideHumidity)
{
    plant::PlantConfig pc = plant::PlantConfig::smoothParasolEvaporative();
    auto hot_dry = weatherAt(38.0, 15.0);

    plant::Plant plant(pc, 3);
    plant.initializeSteadyState(hot_dry, 6.0);
    plant::PodLoad load = plant::PodLoad::uniform(8, 8, 0.5);
    for (int i = 0; i < 240; ++i)
        plant.step(30.0, hot_dry, load,
                   Regime::freeCoolingEvaporative(1.0));
    auto sensors = plant.readSensors();
    EXPECT_GT(sensors.coldAisleAbsHumidity, hot_dry.absHumidity + 2.0);
}

TEST(Evaporative, IgnoredWithoutTheCooler)
{
    plant::PlantConfig pc = plant::PlantConfig::smoothParasol();
    ASSERT_FALSE(pc.hasEvaporativeCooler);
    auto hot_dry = weatherAt(38.0, 15.0);
    double dry = steadyInletUnder(pc, Regime::freeCooling(1.0), hot_dry);
    double evap = steadyInletUnder(
        pc, Regime::freeCoolingEvaporative(1.0), hot_dry);
    // Pump power differs but the thermal path must be identical.
    EXPECT_NEAR(evap, dry, 0.3);
}

TEST(Evaporative, RegimeClassAndMenu)
{
    EXPECT_EQ(classify(Regime::freeCoolingEvaporative(0.5)),
              cooling::RegimeClass::FcEvap);
    EXPECT_EQ(classify(Regime::freeCooling(0.5)),
              cooling::RegimeClass::FcMid);
    EXPECT_EQ(Regime::freeCoolingEvaporative(0.5).str(), "fc+evap@0.50");

    auto menu = cooling::RegimeMenu::smoothWithEvaporative();
    int evap_count = 0;
    for (const auto &r : menu.candidates)
        if (r.evaporative)
            ++evap_count;
    EXPECT_EQ(evap_count, 3);
}

TEST(Evaporative, ExperimentVariantRuns)
{
    sim::ExperimentSpec spec;
    spec.location = namedLocation(NamedSite::Chad);
    spec.system = sim::SystemId::AllNd;
    spec.variant = sim::PlantVariant::Evaporative;
    spec.runKind = sim::RunKind::YearWeekly;
    spec.weeks = 2;
    sim::ExperimentResult r = sim::runExperiment(spec);
    EXPECT_GT(r.system.itKwh, 0.0);
}

// ---------------------------------------------------------------------------
// Chiller variant
// ---------------------------------------------------------------------------

TEST(Chiller, CheaperBackupCoolingAtFullTilt)
{
    plant::PlantConfig dx = plant::PlantConfig::smoothParasol();
    plant::PlantConfig ch = plant::PlantConfig::smoothParasolChiller();
    EXPECT_LT(ch.actuators.power.acFullW, dx.actuators.power.acFullW);
    EXPECT_GT(ch.acCapacityW, dx.acCapacityW);

    auto hot = weatherAt(36.0, 40.0);
    double dx_t = steadyInletUnder(dx, Regime::acCompressor(0.5), hot);
    double ch_t = steadyInletUnder(ch, Regime::acCompressor(0.5), hot);
    EXPECT_LT(ch_t, dx_t + 0.5);  // at least as much cooling
}

// ---------------------------------------------------------------------------
// Sensor-fault injection
// ---------------------------------------------------------------------------

TEST(FaultInjection, StuckSensorReportsFrozenValue)
{
    plant::Plant plant(plant::PlantConfig::parasol(), 3);
    plant.initializeSteadyState(weatherAt(15.0, 50.0), 6.0);
    plant.injectStuckSensor(2, 42.5);
    auto sensors = plant.readSensors();
    EXPECT_DOUBLE_EQ(sensors.podInletC[2], 42.5);
    // True state is unaffected.
    EXPECT_LT(plant.truePodInletC(2), 35.0);
    plant.clearSensorFaults();
    EXPECT_LT(plant.readSensors().podInletC[2], 35.0);
}

TEST(FaultInjection, CoolAirSurvivesStuckSensor)
{
    // A sensor stuck HOT biases the controller toward cooling; the real
    // pods must stay within sane bounds and the run must not blow up.
    Location loc = namedLocation(NamedSite::Newark);
    Climate climate = loc.makeClimate(5);
    Forecaster forecaster(climate);

    plant::PlantConfig pc = plant::PlantConfig::smoothParasol();
    plant::Plant plant(pc, 5);
    plant.injectStuckSensor(7, 31.0);

    workload::ClusterSim cluster({}, workload::facebookTrace({}));
    core::CoolAirConfig config = core::CoolAirConfig::forVersion(
        core::Version::AllNd, cooling::RegimeMenu::smooth());
    sim::CoolAirController coolair(config, sim::sharedBundle(),
                                   &forecaster);
    sim::MetricsCollector metrics({}, 8);
    sim::Engine engine(plant, cluster, coolair, climate);
    engine.setMetrics(&metrics);
    engine.runDay(160);

    for (int p = 0; p < 8; ++p) {
        EXPECT_GT(plant.truePodInletC(p), 5.0);
        EXPECT_LT(plant.truePodInletC(p), 40.0);
    }
}
