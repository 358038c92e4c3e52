#include "environment/weather.hpp"

#include "util/stats.hpp"

namespace coolair {
namespace environment {

double
WeatherProvider::meanTemperature(util::SimTime from, util::SimTime to,
                                 int64_t step_s) const
{
    if (to <= from)
        return temperature(from);
    util::RunningStats stats;
    for (util::SimTime t = from; t < to; t += step_s)
        stats.add(temperature(t));
    return stats.mean();
}

} // namespace environment
} // namespace coolair
