#include "sim/run_plan.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "sim/spec_io.hpp"

namespace coolair {
namespace sim {

RunSegment
RunSegment::days(int first_day, int end_day)
{
    RunSegment s;
    s.startS = int64_t(first_day) * util::kSecondsPerDay;
    s.endS = int64_t(end_day) * util::kSecondsPerDay;
    s.warmStartS = s.startS - kWarmupS;
    return s;
}

std::vector<int>
yearSampleDays(int weeks)
{
    std::vector<int> days;
    if (weeks <= 0)
        return days;
    days.reserve(size_t(weeks));
    // Uniform stride across the whole year: for 52 weeks this is exactly
    // the §5.1 first-day-of-each-week protocol (w * 365 / 52 == 7 * w for
    // w < 52); for shorter runs the stride grows so the sample still
    // covers every season instead of just January onward.
    for (int w = 0; w < weeks; ++w)
        days.push_back(int(int64_t(w) * util::kDaysPerYear / weeks) %
                       util::kDaysPerYear);
    return days;
}

std::vector<RunSegment>
yearSegments(int weeks)
{
    std::vector<RunSegment> segments;
    for (int day : yearSampleDays(weeks))
        segments.push_back(RunSegment::days(day, day + 1));
    return segments;
}

int64_t
sampleIntervalFor(int64_t step_s)
{
    return std::max<int64_t>(60, step_s);
}

RunPlan
RunPlan::forSpec(const ExperimentSpec &spec)
{
    std::string what;
    for (const SpecViolation &v : validateSpec(spec))
        what += (what.empty() ? "" : "; ") + v.what;
    if (!what.empty())
        throw std::invalid_argument("ExperimentSpec: " + what);

    RunPlan plan;
    plan.stepS = int64_t(spec.physicsStepS);
    plan.sampleIntervalS = sampleIntervalFor(plan.stepS);

    switch (spec.runKind) {
      case RunKind::YearWeekly:
        plan.segments = yearSegments(spec.weeks);
        break;
      case RunKind::SingleDay:
        plan.segments = {RunSegment::days(spec.day, spec.day + 1)};
        break;
      case RunKind::DayRange:
        plan.segments = {RunSegment::days(spec.startDay, spec.endDay)};
        break;
    }
    return plan;
}

} // namespace sim
} // namespace coolair
