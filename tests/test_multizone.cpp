/**
 * @file
 * Tests for the multi-zone datacenter (§6's "each cooling zone gets its
 * own CoolAir-like manager") and the zone balancer.
 */

#include <gtest/gtest.h>

#include "environment/location.hpp"
#include "multizone/multizone.hpp"
#include "sim/experiment.hpp"
#include "workload/trace_gen.hpp"

using namespace coolair;
using namespace coolair::multizone;

namespace {

std::function<std::unique_ptr<sim::Controller>(int)>
baselineFactory()
{
    return [](int) {
        return std::make_unique<sim::BaselineController>();
    };
}

std::function<std::unique_ptr<sim::Controller>(int)>
coolairFactory(environment::Forecaster *forecaster)
{
    return [forecaster](int) -> std::unique_ptr<sim::Controller> {
        core::CoolAirConfig cfg = core::CoolAirConfig::forVersion(
            core::Version::AllNd, cooling::RegimeMenu::smooth());
        return std::make_unique<sim::CoolAirController>(
            cfg, sim::sharedBundle(), forecaster);
    };
}

environment::Climate
newarkClimate()
{
    return environment::namedLocation(environment::NamedSite::Newark)
        .makeClimate(9);
}

} // anonymous namespace

TEST(MultiZone, JobsConservedAcrossZones)
{
    environment::Climate climate = newarkClimate();
    MultiZoneConfig cfg;
    cfg.zones = 3;
    MultiZoneEngine engine(cfg, climate, baselineFactory());

    workload::Trace trace = workload::steadyTrace(0.3, {});
    engine.runDay(150, trace);

    int64_t assigned = 0, completed = 0;
    for (int z = 0; z < engine.zoneCount(); ++z) {
        assigned += engine.zoneJobsAssigned(z);
        completed += engine.zoneJobsCompleted(z);
    }
    EXPECT_EQ(assigned, int64_t(trace.jobs.size()));
    // Short steady jobs: nearly everything completes within the day.
    EXPECT_GE(completed, assigned - 6);
}

TEST(MultiZone, RoundRobinSplitsEvenly)
{
    environment::Climate climate = newarkClimate();
    MultiZoneConfig cfg;
    cfg.zones = 4;
    cfg.policy = BalancePolicy::RoundRobin;
    MultiZoneEngine engine(cfg, climate, baselineFactory());
    engine.runDay(150, workload::steadyTrace(0.3, {}));

    int64_t lo = 1 << 30, hi = 0;
    for (int z = 0; z < 4; ++z) {
        lo = std::min(lo, engine.zoneJobsAssigned(z));
        hi = std::max(hi, engine.zoneJobsAssigned(z));
    }
    EXPECT_LE(hi - lo, 1);
}

TEST(MultiZone, LeastLoadedTracksCapacity)
{
    environment::Climate climate = newarkClimate();
    MultiZoneConfig cfg;
    cfg.zones = 2;
    cfg.policy = BalancePolicy::LeastLoaded;
    MultiZoneEngine engine(cfg, climate, baselineFactory());
    engine.runDay(150, workload::facebookTrace({}));

    // Both zones get substantial shares (no starvation).
    for (int z = 0; z < 2; ++z)
        EXPECT_GT(engine.zoneJobsAssigned(z), 1000);
}

TEST(MultiZone, CoolestFirstPrefersCoolerZones)
{
    environment::Climate climate = newarkClimate();
    MultiZoneConfig cfg;
    cfg.zones = 2;
    cfg.policy = BalancePolicy::CoolestFirst;
    MultiZoneEngine engine(cfg, climate, baselineFactory());
    engine.runDay(150, workload::steadyTrace(0.2, {}));

    // The policy feeds whichever zone is cooler; with symmetric zones
    // both still receive jobs and everything lands somewhere.
    int64_t total = engine.zoneJobsAssigned(0) + engine.zoneJobsAssigned(1);
    EXPECT_EQ(total, int64_t(workload::steadyTrace(0.2, {}).jobs.size()));
}

TEST(MultiZone, PerZoneCoolAirManagersRunIndependently)
{
    environment::Climate climate = newarkClimate();
    environment::Forecaster forecaster(climate);
    MultiZoneConfig cfg;
    cfg.zones = 2;
    MultiZoneEngine engine(cfg, climate, coolairFactory(&forecaster));
    engine.runDay(160, workload::facebookTrace({}));

    for (int z = 0; z < 2; ++z) {
        sim::Summary s = engine.zoneSummary(z);
        EXPECT_EQ(s.days, 1u);
        EXPECT_GT(s.itKwh, 1.0);
        EXPECT_LT(s.avgViolationC, 1.0) << "zone " << z;
    }
}

TEST(MultiZone, AggregateSummarySumsEnergy)
{
    environment::Climate climate = newarkClimate();
    MultiZoneConfig cfg;
    cfg.zones = 3;
    MultiZoneEngine engine(cfg, climate, baselineFactory());
    engine.runDay(150, workload::steadyTrace(0.3, {}));

    double it_sum = 0.0, cool_sum = 0.0;
    for (int z = 0; z < 3; ++z) {
        it_sum += engine.zoneSummary(z).itKwh;
        cool_sum += engine.zoneSummary(z).coolingKwh;
    }
    sim::Summary agg = engine.aggregateSummary();
    EXPECT_NEAR(agg.itKwh, it_sum, 1e-9);
    EXPECT_NEAR(agg.coolingKwh, cool_sum, 1e-9);
    EXPECT_NEAR(agg.pue, (it_sum + cool_sum + 0.08 * it_sum) / it_sum,
                1e-9);
}

TEST(MultiZone, CoarseStepRecordsEachStepOnce)
{
    // A 120 s step samples every 120 s, each sample standing for 120 s
    // of energy, so the day's kWh match the 30 s run's.
    auto run = [](double step_s) {
        environment::Climate climate = newarkClimate();
        MultiZoneConfig cfg;
        cfg.zones = 2;
        cfg.physicsStepS = step_s;
        MultiZoneEngine engine(cfg, climate, baselineFactory());
        engine.runDay(150, workload::steadyTrace(0.3, {}));
        return engine.aggregateSummary();
    };
    const sim::Summary fine = run(30.0);
    const sim::Summary coarse = run(120.0);
    EXPECT_NEAR(coarse.itKwh, fine.itKwh, 0.03 * fine.itKwh);
    EXPECT_NEAR(coarse.coolingKwh, fine.coolingKwh, 0.03 * fine.coolingKwh);
}

TEST(MultiZone, PolicyNames)
{
    EXPECT_STREQ(policyName(BalancePolicy::RoundRobin), "round-robin");
    EXPECT_STREQ(policyName(BalancePolicy::CoolestFirst),
                 "coolest-first");
    EXPECT_STREQ(policyName(BalancePolicy::LeastLoaded), "least-loaded");
}
