/**
 * @file
 * Integration tests: full-stack year-slice experiments reproducing the
 * paper's qualitative claims in miniature (few weeks instead of 52).
 */

#include <gtest/gtest.h>

#include "sim/experiment.hpp"
#include "sim/model_plant.hpp"
#include "workload/cluster.hpp"
#include "workload/trace_gen.hpp"

#include "sim/engine.hpp"

using namespace coolair;
using namespace coolair::sim;
using environment::NamedSite;

namespace {

ExperimentSpec
spec(NamedSite site, SystemId system, int weeks = 9)
{
    ExperimentSpec s;
    s.location = environment::namedLocation(site);
    s.system = system;
    s.runKind = RunKind::YearWeekly;
    s.weeks = weeks;
    return s;
}

} // anonymous namespace

TEST(Integration, CoolAirReducesMaxRangeAtColdSite)
{
    // Paper Fig. 9 / §6 lesson 7: managing variation is most successful
    // in cold climates.
    ExperimentResult base =
        runExperiment(spec(NamedSite::Iceland, SystemId::Baseline));
    ExperimentResult allnd =
        runExperiment(spec(NamedSite::Iceland, SystemId::AllNd));
    EXPECT_LT(allnd.system.maxWorstDailyRangeC,
              base.system.maxWorstDailyRangeC);
    EXPECT_LT(allnd.system.avgWorstDailyRangeC,
              base.system.avgWorstDailyRangeC + 0.5);
}

TEST(Integration, ViolationsStayLowUnderCoolAir)
{
    // Paper Fig. 8: CoolAir versions keep average violations < 0.5 C.
    for (SystemId sys : {SystemId::AllNd, SystemId::Variation}) {
        ExperimentResult r =
            runExperiment(spec(NamedSite::Newark, sys, 6));
        EXPECT_LT(r.system.avgViolationC, 0.5) << systemName(sys);
    }
}

TEST(Integration, EnergyVersionHasLowPue)
{
    // Paper Fig. 10: the Energy version attains the lowest PUEs among
    // CoolAir versions at cool sites.
    ExperimentResult energy =
        runExperiment(spec(NamedSite::Newark, SystemId::Energy, 6));
    ExperimentResult variation =
        runExperiment(spec(NamedSite::Newark, SystemId::Variation, 6));
    EXPECT_LT(energy.system.pue, variation.system.pue);
}

TEST(Integration, CoolAirLowersPueAtHotSite)
{
    // Paper: at hot locations CoolAir lowers PUEs vs the baseline.
    // (Short slices sample only some weeks; use a wider slice.)
    ExperimentResult base = runExperiment(
        spec(NamedSite::Singapore, SystemId::Baseline, 16));
    ExperimentResult allnd =
        runExperiment(spec(NamedSite::Singapore, SystemId::AllNd, 16));
    EXPECT_LT(allnd.system.pue, base.system.pue);
}

TEST(Integration, DeferrableWorkloadRuns)
{
    ExperimentResult def =
        runExperiment(spec(NamedSite::Newark, SystemId::AllDef, 4));
    EXPECT_GT(def.system.itKwh, 0.0);
    EXPECT_LT(def.system.avgViolationC, 1.0);
}

TEST(Integration, ProfileWorkloadApproximatesClusterSim)
{
    ExperimentSpec task_spec =
        spec(NamedSite::Newark, SystemId::Baseline, 6);
    ExperimentSpec prof_spec = task_spec;
    prof_spec.workload = WorkloadKind::FacebookProfile;

    ExperimentResult task = runExperiment(task_spec);
    ExperimentResult prof = runExperiment(prof_spec);
    // The profile replay is the world-sweep fast path; it must land in
    // the same regime as the task-level simulation.
    EXPECT_NEAR(prof.system.pue, task.system.pue, 0.05);
    EXPECT_NEAR(prof.system.avgWorstDailyRangeC,
                task.system.avgWorstDailyRangeC, 2.5);
}

TEST(Integration, ExperimentsAreDeterministic)
{
    ExperimentResult a =
        runExperiment(spec(NamedSite::Santiago, SystemId::AllNd, 3));
    ExperimentResult b =
        runExperiment(spec(NamedSite::Santiago, SystemId::AllNd, 3));
    EXPECT_DOUBLE_EQ(a.system.pue, b.system.pue);
    EXPECT_DOUBLE_EQ(a.system.maxWorstDailyRangeC,
                     b.system.maxWorstDailyRangeC);
}

TEST(Integration, NutchWorkloadRuns)
{
    ExperimentSpec s = spec(NamedSite::Newark, SystemId::AllNd, 4);
    s.workload = WorkloadKind::Nutch;
    ExperimentResult r = runExperiment(s);
    EXPECT_GT(r.system.itKwh, 0.0);
    EXPECT_LT(r.system.avgViolationC, 1.0);
}

TEST(Integration, ForecastBiasHasBoundedImpact)
{
    // Paper §5.2: ±5 C forecast bias changes max range by < ~1 C and
    // PUE slightly.  Allow generous slack on the mini run.
    ExperimentSpec perfect = spec(NamedSite::Newark, SystemId::AllNd, 6);
    ExperimentSpec warm = perfect;
    warm.forecastError.biasC = 5.0;
    ExperimentResult p = runExperiment(perfect);
    ExperimentResult w = runExperiment(warm);
    EXPECT_NEAR(w.system.maxWorstDailyRangeC,
                p.system.maxWorstDailyRangeC, 3.5);
    EXPECT_NEAR(w.system.pue, p.system.pue, 0.08);
}

TEST(ModelPlantValidation, RealSimTracksPhysicsPlant)
{
    // Figure 6 methodology in miniature: run the baseline day on the
    // physics plant ("real") and on the learned-model plant (Real-Sim),
    // then compare cooling energy and temperature spread.
    environment::Location loc =
        environment::namedLocation(environment::NamedSite::Newark);
    environment::Climate climate = loc.makeClimate(7);

    // Physics-plant run.
    plant::PlantConfig pc = plant::PlantConfig::parasol();
    plant::Plant plant(pc, 7);
    workload::ClusterSim cluster({}, workload::facebookTrace({}));
    BaselineController baseline;
    MetricsCollector real_metrics({}, 8);
    Engine engine(plant, cluster, baseline, climate);
    engine.setMetrics(&real_metrics);
    engine.runDay(150);
    Summary real = real_metrics.summary();

    // Real-Sim run from the same initial conditions (the physics
    // plant's steady state at the day's start), at the model step.
    ModelPlant model_plant(&sharedBundle().model, pc, 7);
    workload::ClusterSim cluster2({}, workload::facebookTrace({}));
    BaselineController baseline2;
    MetricsCollector sim_metrics({}, 8);
    EngineConfig model_step;
    model_step.physicsStepS = model_plant.stepS();
    model_step.sampleIntervalS = int64_t(model_plant.stepS());
    Engine sim_engine(model_plant, cluster2, baseline2, climate, model_step);
    sim_engine.setMetrics(&sim_metrics);

    const util::SimTime day_start = util::SimTime::fromCalendar(150, 0);
    sim_engine.startSegment(day_start);
    sim_engine.runRange(day_start, day_start + util::kSecondsPerDay, true);
    Summary sim = sim_metrics.summary();

    // Paper: baseline Real-Sim within ~8 % on the headline measures.
    // Allow looser bounds here (different day, single run; Real-Sim
    // steps at the 2-minute model granularity while the TKS reacts
    // every minute, which exaggerates its cycling amplitude).
    EXPECT_NEAR(sim.avgMaxInletC, real.avgMaxInletC, 3.0);
    EXPECT_NEAR(sim.maxWorstDailyRangeC, real.maxWorstDailyRangeC, 8.0);
    EXPECT_LT(std::abs(sim.coolingKwh - real.coolingKwh),
              std::max(0.5 * real.coolingKwh, 2.5));
}
