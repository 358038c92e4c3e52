/**
 * @file
 * Property and fuzz tests: invariants that must hold for any regime
 * sequence, any compute plan, and any weather — boundedness, energy
 * sanity, and bookkeeping consistency.
 */

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <string>

#include "cooling/tks.hpp"
#include "environment/location.hpp"
#include "physics/psychrometrics.hpp"
#include "plant/parasol.hpp"
#include "sim/spec_io.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "workload/cluster.hpp"
#include "workload/trace_gen.hpp"

using namespace coolair;
using namespace coolair::plant;
using cooling::Regime;
using util::Rng;
using util::SimTime;

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

Regime
randomRegime(Rng &rng)
{
    double r = rng.uniform();
    if (r < 0.3)
        return Regime::closed();
    if (r < 0.65)
        return Regime::freeCooling(rng.uniform(0.0, 1.0));
    if (r < 0.8)
        return Regime::acFanOnly();
    if (r < 0.9)
        return Regime::acCompressor(rng.uniform(0.1, 1.0));
    return Regime::freeCoolingEvaporative(rng.uniform(0.1, 1.0));
}

} // anonymous namespace

/**
 * Property: under arbitrary regime/weather/load sequences, the plant
 * stays within physical bounds and never produces NaNs.
 */
class PlantFuzz : public ::testing::TestWithParam<int>
{
};

TEST_P(PlantFuzz, StateStaysPhysical)
{
    Rng rng{uint64_t(GetParam()) * 977 + 13};
    PlantConfig pc = GetParam() % 2 ? PlantConfig::smoothParasolEvaporative()
                                    : PlantConfig::parasol();
    Plant plant(pc, uint64_t(GetParam()));
    plant.initializeSteadyState(weatherAt(15.0, 50.0), 6.0);

    Regime regime = Regime::closed();
    PodLoad load = PodLoad::uniform(8, 8, 0.5);
    double outside = 15.0;

    for (int step = 0; step < 2000; ++step) {
        if (rng.bernoulli(0.05))
            regime = randomRegime(rng);
        if (rng.bernoulli(0.05)) {
            load = PodLoad::uniform(8, 8, rng.uniform(0.0, 1.0));
            for (auto &a : load.activeServers)
                a = int(rng.uniformInt(0, 8));
        }
        outside = util::clamp(outside + rng.normal(0.0, 0.3), -30.0, 48.0);
        double rh = rng.uniform(5.0, 100.0);

        plant.step(rng.uniform(5.0, 120.0), weatherAt(outside, rh), load,
                   regime);

        for (int p = 0; p < 8; ++p) {
            double t = plant.truePodInletC(p);
            ASSERT_TRUE(std::isfinite(t)) << "step " << step;
            ASSERT_GT(t, -40.0) << "step " << step;
            ASSERT_LT(t, 75.0) << "step " << step;
            ASSERT_TRUE(std::isfinite(plant.diskTempC(p)));
        }
        ASSERT_TRUE(std::isfinite(plant.hotAisleC()));
        ASSERT_GE(plant.coolingPowerW(), 0.0);
        ASSERT_LE(plant.coolingPowerW(), 2400.0);
        ASSERT_GE(plant.itPowerW(), 0.0);

        auto sensors = plant.readSensors();
        ASSERT_GE(sensors.coldAisleRhPercent, 0.0);
        ASSERT_LE(sensors.coldAisleRhPercent, 100.0);
        ASSERT_GT(sensors.coldAisleAbsHumidity, 0.0);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlantFuzz, ::testing::Range(0, 6));

/**
 * Property: steady-state energy sanity — with fixed conditions, the
 * inlet temperature settles (no limit cycles in the plant itself) and
 * warmer outside air yields warmer steady inlets under free cooling.
 */
class PlantSteadyState : public ::testing::TestWithParam<double>
{
};

TEST_P(PlantSteadyState, FreeCoolingMonotoneInOutsideTemp)
{
    double outside = GetParam();
    auto run = [&](double out_c) {
        Plant plant(PlantConfig::parasol(), 1);
        plant.initializeSteadyState(weatherAt(out_c, 50.0), 6.0);
        PodLoad load = PodLoad::uniform(8, 8, 0.5);
        for (int i = 0; i < 480; ++i)
            plant.step(30.0, weatherAt(out_c, 50.0), load,
                       Regime::freeCooling(0.6));
        double sum = 0.0;
        for (int p = 0; p < 8; ++p)
            sum += plant.truePodInletC(p);
        return sum / 8.0;
    };
    double cool = run(outside);
    double warm = run(outside + 5.0);
    EXPECT_GT(warm, cool + 2.0);
    // Inlet sits above the outside air (servers add heat).
    EXPECT_GT(cool, outside);
}

INSTANTIATE_TEST_SUITE_P(OutsideTemps, PlantSteadyState,
                         ::testing::Values(-10.0, 0.0, 10.0, 20.0, 30.0));

/**
 * Fuzz: the cluster's bookkeeping stays consistent under random plans.
 */
class ClusterFuzz : public ::testing::TestWithParam<int>
{
};

TEST_P(ClusterFuzz, InvariantsUnderRandomPlans)
{
    Rng rng{uint64_t(GetParam()) * 31337 + 7};
    workload::TraceGenConfig tg;
    tg.seed = uint64_t(GetParam());
    workload::ClusterSim sim({}, workload::facebookTrace(tg));

    workload::ComputePlan plan = workload::ComputePlan::passthrough();
    int64_t last_tasks = 0;

    for (int64_t t = 0; t < util::kSecondsPerDay / 2; t += 30) {
        if (t % 600 == 0) {
            plan.manageServerStates = rng.bernoulli(0.7);
            plan.targetActiveServers = int(rng.uniformInt(0, 80));
            if (rng.bernoulli(0.3)) {
                plan.podOrder.clear();
                for (int p = 7; p >= 0; --p)
                    plan.podOrder.push_back(p);
            }
            for (auto &h : plan.hourAllowed)
                h = rng.bernoulli(0.8);
            sim.applyPlan(plan);
        }
        sim.step(SimTime(t), 30.0);

        // Invariants.
        ASSERT_GE(sim.busySlots(), 0);
        ASSERT_LE(sim.busySlots(), 128);
        int awake = sim.awakeServers();
        ASSERT_GE(awake, plan.manageServerStates ? 8 : 64);
        ASSERT_LE(awake, 64);

        auto load = sim.podLoad();
        int awake_from_pods = 0;
        for (int p = 0; p < 8; ++p) {
            ASSERT_GE(load.activeServers[size_t(p)], 0);
            ASSERT_LE(load.activeServers[size_t(p)], 8);
            ASSERT_GE(load.utilization[size_t(p)], 0.0);
            ASSERT_LE(load.utilization[size_t(p)], 1.0);
            awake_from_pods += load.activeServers[size_t(p)];
        }
        ASSERT_EQ(awake_from_pods, awake);

        auto stats = sim.stats();
        ASSERT_GE(stats.tasksCompleted, last_tasks);  // monotone
        last_tasks = stats.tasksCompleted;

        auto status = sim.status();
        ASSERT_GE(status.demandServers, 0);
        ASSERT_LE(status.demandServers, 64);
    }

    // Despite the chaos, work makes progress.
    EXPECT_GT(sim.stats().tasksCompleted, 100);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClusterFuzz, ::testing::Range(0, 4));

/**
 * Property: the TKS never emits an impossible regime and its fan-speed
 * law is monotone in the outside-inside gap.
 */
class TksProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(TksProperty, OutputsAlwaysValid)
{
    Rng rng{uint64_t(GetParam()) + 99};
    cooling::TksController tks(cooling::TksConfig::extendedBaseline());
    for (int i = 0; i < 2000; ++i) {
        cooling::ControlInputs in;
        in.outsideTempC = rng.uniform(-30.0, 45.0);
        in.controlSensorC = rng.uniform(0.0, 45.0);
        in.outsideRhPercent = rng.uniform(5.0, 100.0);
        in.insideRhPercent = rng.uniform(5.0, 100.0);
        in.outsideAbsHumidity = physics::absoluteHumidity(
            in.outsideTempC, in.outsideRhPercent);
        Regime r = tks.control(in);
        switch (r.mode) {
          case cooling::Mode::FreeCooling:
            ASSERT_GE(r.fanSpeed, 0.15);
            ASSERT_LE(r.fanSpeed, 1.0);
            ASSERT_FALSE(r.compressorOn);
            break;
          case cooling::Mode::AirConditioning:
          case cooling::Mode::Closed:
            ASSERT_DOUBLE_EQ(r.normalized().fanSpeed, 0.0);
            break;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TksProperty, ::testing::Range(0, 3));

/**
 * Property: the spec text form is lossless — parse(format(spec)) == spec
 * for any spec, named site or custom climate, with or without the
 * optional tuning overrides.
 */
class SpecRoundTrip : public ::testing::TestWithParam<int>
{
};

namespace {

sim::ExperimentSpec
randomSpec(Rng &rng)
{
    sim::ExperimentSpec spec;

    if (rng.bernoulli(0.5)) {
        const auto &sites = environment::allNamedSites();
        spec.location = environment::namedLocation(
            sites[size_t(rng.uniformInt(0, int64_t(sites.size()) - 1))]);
    } else {
        spec.location.name =
            "fuzz-site-" + std::to_string(rng.uniformInt(0, 999));
        spec.location.latitude = rng.uniform(-90.0, 90.0);
        spec.location.longitude = rng.uniform(-180.0, 180.0);
        environment::ClimateParams &cl = spec.location.climate;
        cl.annualMeanC = rng.uniform(-10.0, 30.0);
        cl.seasonalAmplitudeC = rng.uniform(0.0, 20.0);
        cl.diurnalAmplitudeC = rng.uniform(0.0, 12.0);
        cl.synopticAmplitudeC = rng.uniform(0.0, 6.0);
        cl.dewPointDepressionC = rng.uniform(1.0, 20.0);
        cl.dewPointVariabilityC = rng.uniform(0.0, 5.0);
        cl.southernHemisphere = rng.bernoulli(0.5);
        cl.seasonalPeakDay = rng.uniform(0.0, 365.0);
        cl.diurnalPeakHour = rng.uniform(0.0, 24.0);
    }

    const auto &systems = sim::allSystemIds();
    spec.system =
        systems[size_t(rng.uniformInt(0, int64_t(systems.size()) - 1))];
    spec.style = rng.bernoulli(0.5) ? cooling::ActuatorStyle::Abrupt
                                    : cooling::ActuatorStyle::Smooth;
    spec.variant = std::array{sim::PlantVariant::Standard,
                              sim::PlantVariant::Evaporative,
                              sim::PlantVariant::Chiller}[size_t(
        rng.uniformInt(0, 2))];
    spec.workload = std::array{sim::WorkloadKind::Facebook,
                               sim::WorkloadKind::Nutch,
                               sim::WorkloadKind::FacebookProfile,
                               sim::WorkloadKind::SteadyHalf}[size_t(
        rng.uniformInt(0, 3))];
    spec.runKind = std::array{sim::RunKind::YearWeekly,
                              sim::RunKind::SingleDay,
                              sim::RunKind::DayRange}[size_t(
        rng.uniformInt(0, 2))];

    spec.maxTempC = rng.uniform(20.0, 35.0);
    spec.forecastError.biasC = rng.uniform(-5.0, 5.0);
    spec.forecastError.noiseStddevC = rng.uniform(0.0, 3.0);
    spec.weeks = int(rng.uniformInt(1, 52));
    spec.day = int(rng.uniformInt(0, 364));
    spec.startDay = int(rng.uniformInt(0, 180));
    spec.endDay = spec.startDay + int(rng.uniformInt(1, 14));
    // Inside physics_step's domain: a divisor of 60, or an integer in
    // [60, 3600].
    constexpr double kMinuteDivisors[] = {1, 2, 3, 4, 5, 6, 10, 12, 15, 20, 30};
    spec.physicsStepS =
        rng.bernoulli(0.5)
            ? kMinuteDivisors[size_t(rng.uniformInt(0, 10))]
            : double(rng.uniformInt(60, 3600));
    spec.seed = rng.next();
    spec.weatherCache = rng.bernoulli(0.5);

    if (rng.bernoulli(0.3))
        spec.traceCsvPath = "/tmp/fuzz-trace.csv";
    spec.resultCache = rng.bernoulli(0.8);
    if (rng.bernoulli(0.3))
        spec.cacheDirPath =
            "/tmp/fuzz-cache-" + std::to_string(rng.uniformInt(0, 9));
    if (rng.bernoulli(0.3))
        spec.bandWidthC = rng.uniform(1.0, 10.0);
    if (rng.bernoulli(0.3))
        spec.bandOffsetC = rng.uniform(0.0, 12.0);
    if (rng.bernoulli(0.3))
        spec.switchPenalty = rng.uniform(0.0, 5.0);
    if (rng.bernoulli(0.3))
        spec.sleepDecayPerEpoch = rng.uniform(0.0, 1.0);
    if (rng.bernoulli(0.3))
        spec.horizonSteps = int(rng.uniformInt(1, 16));
    if (rng.bernoulli(0.3))
        spec.batch = int(rng.uniformInt(1, 64));
    return spec;
}

} // anonymous namespace

TEST_P(SpecRoundTrip, ParseFormatIdentity)
{
    Rng rng{uint64_t(GetParam()) * 7919 + 3};
    for (int iter = 0; iter < 64; ++iter) {
        sim::ExperimentSpec spec = randomSpec(rng);
        std::string text = sim::formatSpec(spec);
        sim::ExperimentSpec parsed;
        ASSERT_NO_THROW(parsed = sim::parseSpec(text)) << text;
        ASSERT_TRUE(parsed == spec) << text;
        // Formatting is deterministic, so format(parse(.)) is stable too.
        ASSERT_EQ(text, sim::formatSpec(parsed));
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpecRoundTrip, ::testing::Range(0, 4));
