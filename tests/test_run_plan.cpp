/**
 * @file
 * Tests for the run lifecycle shared by the scalar and batched engines
 * (sim/run_plan.hpp): both engines step the same plan, and the plan's
 * segments and predicted counters follow the §5.1 protocol.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "environment/location.hpp"
#include "obs/stats.hpp"
#include "sim/experiment.hpp"
#include "sim/run_plan.hpp"

using namespace coolair;
using namespace coolair::sim;

namespace {

/** A cheap spec of each run kind: profile workload, 120 s step. */
ExperimentSpec
kindSpec(RunKind kind)
{
    ExperimentSpec spec;
    spec.location =
        environment::namedLocation(environment::NamedSite::Newark);
    spec.system = SystemId::AllNd;
    spec.workload = WorkloadKind::FacebookProfile;
    spec.physicsStepS = 120.0;
    spec.runKind = kind;
    spec.weeks = 3;
    spec.day = 200;
    spec.startDay = 40;
    spec.endDay = 42;
    return spec;
}

struct EngineCounts
{
    int64_t steps = 0;
    int64_t samples = 0;
};

/** Run @p spec with obs on and read the engine counters it published. */
EngineCounts
countsOf(const ExperimentSpec &spec)
{
    obs::registry().clear();
    obs::setEnabled(true);
    runExperiment(spec);
    obs::setEnabled(false);
    EngineCounts c;
    c.steps = obs::registry().counter("engine.steps").value();
    c.samples = obs::registry().counter("engine.samples").value();
    obs::registry().clear();
    return c;
}

/** Steps and collected samples an engine takes to step @p plan. */
EngineCounts
predictedCounts(const RunPlan &plan)
{
    auto stepsOver = [&](int64_t from, int64_t to) {
        return (to - from + plan.stepS - 1) / plan.stepS;
    };
    const int64_t per_sample = plan.sampleIntervalS / plan.stepS;
    EngineCounts c;
    for (const RunSegment &s : plan.segments) {
        const int64_t measured = stepsOver(s.startS, s.endS);
        c.steps += stepsOver(s.warmStartS, s.startS) + measured;
        c.samples += (measured + per_sample - 1) / per_sample;
    }
    return c;
}

/** The invalid_argument text RunPlan::forSpec gives @p spec. */
std::string
planError(const ExperimentSpec &spec)
{
    try {
        RunPlan::forSpec(spec);
    } catch (const std::invalid_argument &e) {
        return e.what();
    }
    return "";
}

} // anonymous namespace

TEST(RunLifecycle, ScalarAndBatchedEnginesStepTheSamePlan)
{
    for (RunKind kind :
         {RunKind::YearWeekly, RunKind::SingleDay, RunKind::DayRange}) {
        ExperimentSpec scalar = kindSpec(kind);
        ExperimentSpec batched = scalar;
        batched.batch = 1;

        const EngineCounts s = countsOf(scalar);
        const EngineCounts b = countsOf(batched);
        const int k = int(kind);
        EXPECT_GT(s.steps, 0) << k;
        EXPECT_GT(s.samples, 0) << k;
        EXPECT_EQ(s.steps, b.steps) << k;
        EXPECT_EQ(s.samples, b.samples) << k;
    }
}

TEST(RunPlan, YearSegmentsAreTheSampledDays)
{
    const RunPlan plan = RunPlan::forSpec(kindSpec(RunKind::YearWeekly));
    const std::vector<int> days = yearSampleDays(3);
    ASSERT_EQ(plan.segments.size(), days.size());
    for (size_t i = 0; i < days.size(); ++i) {
        EXPECT_EQ(plan.segments[i].startS,
                  int64_t(days[i]) * util::kSecondsPerDay);
        EXPECT_EQ(plan.segments[i].endS,
                  plan.segments[i].startS + util::kSecondsPerDay);
    }
}

TEST(RunPlan, EverySegmentWarmsUpBeforeItsStart)
{
    for (RunKind kind :
         {RunKind::YearWeekly, RunKind::SingleDay, RunKind::DayRange})
        for (const RunSegment &s :
             RunPlan::forSpec(kindSpec(kind)).segments)
            EXPECT_EQ(s.warmStartS, s.startS - kWarmupS) << int(kind);
}

TEST(RunPlan, DayAndRangeAreOneSegment)
{
    const RunPlan day = RunPlan::forSpec(kindSpec(RunKind::SingleDay));
    ASSERT_EQ(day.segments.size(), 1u);
    EXPECT_EQ(day.segments[0].startS, 200 * util::kSecondsPerDay);
    EXPECT_EQ(day.segments[0].endS, 201 * util::kSecondsPerDay);

    const RunPlan range = RunPlan::forSpec(kindSpec(RunKind::DayRange));
    ASSERT_EQ(range.segments.size(), 1u);
    EXPECT_EQ(range.segments[0].startS, 40 * util::kSecondsPerDay);
    EXPECT_EQ(range.segments[0].endS, 42 * util::kSecondsPerDay);
}

TEST(RunPlan, TimelineFollowsThePhysicsStep)
{
    ExperimentSpec spec = kindSpec(RunKind::SingleDay);
    for (double step : {1.0, 30.0, 60.0, 77.0, 3600.0}) {
        spec.physicsStepS = step;
        const RunPlan plan = RunPlan::forSpec(spec);
        EXPECT_EQ(plan.stepS, int64_t(step));
        EXPECT_EQ(plan.sampleIntervalS,
                  std::max<int64_t>(60, int64_t(step)));
    }
}

TEST(RunPlan, PredictedCountsMatchBothEngines)
{
    for (RunKind kind :
         {RunKind::YearWeekly, RunKind::SingleDay, RunKind::DayRange}) {
        ExperimentSpec scalar = kindSpec(kind);
        ExperimentSpec batched = scalar;
        batched.batch = 1;
        const EngineCounts want = predictedCounts(RunPlan::forSpec(scalar));
        const EngineCounts s = countsOf(scalar);
        const EngineCounts b = countsOf(batched);
        EXPECT_EQ(s.steps, want.steps) << int(kind);
        EXPECT_EQ(s.samples, want.samples) << int(kind);
        EXPECT_EQ(b.steps, want.steps) << int(kind);
        EXPECT_EQ(b.samples, want.samples) << int(kind);
    }
}

TEST(RunPlan, RejectsRunShapesOutsideTheirDomainsByKey)
{
    struct Case
    {
        RunKind kind;
        void (*set)(ExperimentSpec &);
        const char *key;
    };
    const Case cases[] = {
        {RunKind::SingleDay, [](ExperimentSpec &s) { s.physicsStepS = 7; },
         "physics_step"},
        {RunKind::SingleDay,
         [](ExperimentSpec &s) { s.physicsStepS = 0.5; }, "physics_step"},
        {RunKind::SingleDay,
         [](ExperimentSpec &s) { s.physicsStepS = std::nan(""); },
         "physics_step"},
        {RunKind::SingleDay,
         [](ExperimentSpec &s) { s.physicsStepS = 1e300; }, "physics_step"},
        {RunKind::SingleDay,
         [](ExperimentSpec &s) { s.physicsStepS = 3601; }, "physics_step"},
        {RunKind::YearWeekly, [](ExperimentSpec &s) { s.weeks = 53; },
         "weeks"},
        {RunKind::SingleDay, [](ExperimentSpec &s) { s.day = 365; }, "day"},
        {RunKind::SingleDay, [](ExperimentSpec &s) { s.day = -1; }, "day"},
        {RunKind::DayRange, [](ExperimentSpec &s) { s.startDay = -5; },
         "start_day"},
        {RunKind::DayRange,
         [](ExperimentSpec &s) {
             s.startDay = 10;
             s.endDay = 376;
         },
         "end_day"},
    };
    for (const Case &c : cases) {
        ExperimentSpec spec = kindSpec(c.kind);
        c.set(spec);
        EXPECT_NE(planError(spec).find(c.key), std::string::npos)
            << c.key << ": " << planError(spec);
    }

    // Keys a run kind does not read are not checked.
    ExperimentSpec year = kindSpec(RunKind::YearWeekly);
    year.day = 9999;
    EXPECT_EQ(planError(year), "");

    // Domain edges.
    ExperimentSpec edge = kindSpec(RunKind::DayRange);
    edge.startDay = 0;
    edge.endDay = 365;
    edge.physicsStepS = 1.0;
    EXPECT_EQ(planError(edge), "");
    edge = kindSpec(RunKind::YearWeekly);
    edge.weeks = 52;
    EXPECT_EQ(planError(edge), "");
}
