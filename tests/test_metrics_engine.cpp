/**
 * @file
 * Tests for the metrics collector and the co-simulation engine.
 */

#include <gtest/gtest.h>

#include "environment/location.hpp"
#include "sim/engine.hpp"
#include "sim/experiment.hpp"
#include "workload/cluster.hpp"
#include "workload/trace_gen.hpp"

using namespace coolair;
using namespace coolair::sim;
using util::SimTime;
using util::kSecondsPerHour;

namespace {

plant::SensorReadings
reading(double temp, double rh = 50.0, double it_w = 1000.0,
        double cool_w = 100.0)
{
    plant::SensorReadings s;
    s.podInletC = {temp, temp + 1.0};
    s.coldAisleRhPercent = rh;
    s.itPowerW = it_w;
    s.coolingPowerW = cool_w;
    return s;
}

} // anonymous namespace

TEST(Metrics, ViolationAveragesOverAllReadings)
{
    MetricsCollector m({}, 2);  // max temp 30
    m.record(SimTime(0), reading(29.0), 60.0);    // 0 violation
    m.record(SimTime(60), reading(31.0), 60.0);   // pods at 31, 32
    Summary s = m.summary();
    // Four sensor readings: 0, 0, 1, 2 -> avg 0.75.
    EXPECT_NEAR(s.avgViolationC, 0.75, 1e-9);
}

TEST(Metrics, PueIncludesDeliveryOverhead)
{
    MetricsCollector m({}, 2);
    // IT 1000 W, cooling 100 W for one hour.
    for (int i = 0; i < 60; ++i)
        m.record(SimTime(i * 60), reading(25.0), 60.0);
    Summary s = m.summary();
    EXPECT_NEAR(s.itKwh, 1.0, 1e-6);
    EXPECT_NEAR(s.coolingKwh, 0.1, 1e-6);
    // (1.0 + 0.1 + 0.08) / 1.0.
    EXPECT_NEAR(s.pue, 1.18, 1e-6);
}

TEST(Metrics, DailyRangesSeparateDays)
{
    MetricsCollector m({}, 2);
    // Day 0: swing 4 C; day 1: swing 10 C.
    m.record(SimTime(0), reading(22.0), 60.0);
    m.record(SimTime(600), reading(26.0), 60.0);
    m.record(SimTime(util::kSecondsPerDay), reading(20.0), 60.0);
    m.record(SimTime(util::kSecondsPerDay + 600), reading(30.0), 60.0);
    Summary s = m.summary();
    EXPECT_EQ(s.days, 2u);
    EXPECT_NEAR(s.avgWorstDailyRangeC, 7.0, 1e-9);
    EXPECT_NEAR(s.maxWorstDailyRangeC, 10.0, 1e-9);
    EXPECT_NEAR(s.minWorstDailyRangeC, 4.0, 1e-9);
}

TEST(Metrics, HumidityViolationsCounted)
{
    MetricsCollector m({}, 2);  // ceiling 80 %
    m.record(SimTime(0), reading(25.0, 85.0), 60.0);
    m.record(SimTime(60), reading(25.0, 70.0), 60.0);
    Summary s = m.summary();
    EXPECT_NEAR(s.humidityViolationFrac, 0.5, 1e-9);
}

TEST(Metrics, RateViolationsUseTenMinuteWindow)
{
    MetricsCollector m({}, 2);
    // 5 C over 10 minutes = 30 C/h > 20 C/h.
    for (int i = 0; i <= 10; ++i)
        m.record(SimTime(i * 60), reading(20.0 + 0.5 * i), 60.0);
    Summary fast = m.summary();
    EXPECT_GT(fast.rateViolationFrac, 0.0);

    MetricsCollector slow({}, 2);
    // 1 C over 10 minutes = 6 C/h: fine.
    for (int i = 0; i <= 10; ++i)
        slow.record(SimTime(i * 60), reading(20.0 + 0.1 * i), 60.0);
    EXPECT_DOUBLE_EQ(slow.summary().rateViolationFrac, 0.0);
}

TEST(Metrics, OutsideRangesTracked)
{
    MetricsCollector m({}, 2);
    m.record(SimTime(0), reading(20.0), 60.0, 5.0);
    m.record(SimTime(600), reading(20.0), 60.0, 15.0);
    Summary s = m.outsideSummary();
    EXPECT_NEAR(s.avgWorstDailyRangeC, 10.0, 1e-9);
}

TEST(Engine, BaselineDayRunsAndCollects)
{
    environment::Location loc =
        environment::namedLocation(environment::NamedSite::Newark);
    environment::Climate climate = loc.makeClimate(5);

    plant::Plant plant(plant::PlantConfig::smoothParasol(), 5);
    workload::ClusterSim cluster({}, workload::steadyTrace(0.4, {}));
    BaselineController baseline;

    MetricsCollector metrics({}, 8);
    Engine engine(plant, cluster, baseline, climate);
    engine.setMetrics(&metrics);

    int rows = 0;
    engine.setTraceSink([&](const TraceRow &) { ++rows; });
    engine.runDay(150);

    Summary s = metrics.summary();
    EXPECT_EQ(s.days, 1u);
    EXPECT_EQ(rows, 1440);  // one sample per minute for a day
    EXPECT_GT(s.itKwh, 10.0);
    // A June day in Newark under the baseline: sane temperatures.
    EXPECT_LT(s.avgMaxInletC, 36.0);
    EXPECT_GT(s.avgMaxInletC, 15.0);
    EXPECT_LT(s.avgViolationC, 2.0);
}

TEST(Engine, ControllerEpochHonored)
{
    environment::Location loc =
        environment::namedLocation(environment::NamedSite::Newark);
    environment::Climate climate = loc.makeClimate(5);
    plant::Plant plant(plant::PlantConfig::smoothParasol(), 5);
    workload::ClusterSim cluster({}, workload::Trace{});

    // Counting controller.
    struct Counter : Controller
    {
        int calls = 0;
        ControlDecision control(const plant::SensorReadings &,
                                const workload::WorkloadStatus &,
                                const plant::PodLoad &,
                                util::SimTime) override
        {
            ++calls;
            ControlDecision d;
            d.regime = cooling::Regime::closed();
            return d;
        }
        int64_t epochS() const override { return 600; }
        const char *name() const override { return "counter"; }
    } counter;

    Engine engine(plant, cluster, counter, climate);
    engine.runRange(SimTime(0), SimTime(2 * kSecondsPerHour), false);
    EXPECT_EQ(counter.calls, 12);  // every 10 minutes for 2 h
}

TEST(Engine, DeterministicRuns)
{
    environment::Location loc =
        environment::namedLocation(environment::NamedSite::Iceland);
    environment::Climate climate = loc.makeClimate(6);

    auto run_once = [&]() {
        plant::Plant plant(plant::PlantConfig::smoothParasol(), 6);
        workload::ClusterSim cluster({}, workload::facebookTrace({}));
        BaselineController baseline;
        MetricsCollector metrics({}, 8);
        Engine engine(plant, cluster, baseline, climate);
        engine.setMetrics(&metrics);
        engine.runDay(30);
        return metrics.summary();
    };
    Summary a = run_once();
    Summary b = run_once();
    EXPECT_DOUBLE_EQ(a.avgWorstDailyRangeC, b.avgWorstDailyRangeC);
    EXPECT_DOUBLE_EQ(a.pue, b.pue);
    EXPECT_DOUBLE_EQ(a.coolingKwh, b.coolingKwh);
}
