#include "sim/run_plan.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string>

namespace coolair {
namespace sim {

namespace {

[[noreturn]] void
reject(const std::string &what)
{
    throw std::invalid_argument("ExperimentSpec: " + what);
}

} // anonymous namespace

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

RunPlan
RunPlan::forSpec(const ExperimentSpec &spec)
{
    const double step = spec.physicsStepS;
    if (step <= 0.0)
        reject("physics step must be positive");
    // Checked before the integer cast: int64_t(nan) or int64_t(1e300) is
    // undefined behaviour.
    if (!(step <= 3600.0) || step != std::floor(step) ||
        (step < 60.0 && 60 % int64_t(step) != 0)) {
        std::ostringstream os;
        os << "physics_step must be an integer in [1, 3600] that divides "
              "60 when below 60 (got "
           << step << ")";
        reject(os.str());
    }

    RunPlan plan;
    plan.stepS = int64_t(step);
    plan.sampleIntervalS = std::max<int64_t>(60, plan.stepS);

    switch (spec.runKind) {
      case RunKind::YearWeekly:
        if (spec.weeks <= 0)
            reject("weeks must be positive");
        if (spec.weeks > 52)
            reject("weeks must be in [1, 52] (got " +
                   std::to_string(spec.weeks) + ")");
        plan.segments = yearSegments(spec.weeks);
        break;
      case RunKind::SingleDay:
        if (spec.day < 0 || spec.day >= util::kDaysPerYear)
            reject("day must be in [0, 365) (got " +
                   std::to_string(spec.day) + ")");
        plan.segments = {RunSegment::days(spec.day, spec.day + 1)};
        break;
      case RunKind::DayRange:
        if (spec.startDay < 0)
            reject("start_day must be non-negative (got " +
                   std::to_string(spec.startDay) + ")");
        if (spec.endDay <= spec.startDay)
            reject("day range must be non-empty");
        if (spec.endDay - spec.startDay > util::kDaysPerYear)
            reject("end_day must be at most start_day + 365 (got " +
                   std::to_string(spec.endDay) + ")");
        plan.segments = {RunSegment::days(spec.startDay, spec.endDay)};
        break;
    }
    return plan;
}

} // namespace sim
} // namespace coolair
