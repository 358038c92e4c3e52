#ifndef COOLAIR_ENVIRONMENT_WEATHER_HPP
#define COOLAIR_ENVIRONMENT_WEATHER_HPP

/**
 * @file
 * The weather-provider abstraction.
 *
 * Everything that consumes outdoor conditions (the plant, the engine,
 * the Forecaster) does so through WeatherProvider, so the same
 * experiments run against the parametric synthetic climate (Climate)
 * or any custom source a downstream user supplies.
 */

#include <cstdint>

#include "util/sim_time.hpp"

namespace coolair {
namespace environment {

/** One instantaneous outdoor weather observation. */
struct WeatherSample
{
    double tempC = 0.0;        ///< Outside dry-bulb temperature [°C].
    double rhPercent = 50.0;   ///< Outside relative humidity [0..100].
    double absHumidity = 5.0;  ///< Outside absolute humidity [g/m^3].
};

/** Source of outdoor conditions over the simulated year. */
class WeatherProvider
{
  public:
    virtual ~WeatherProvider() = default;

    /** Full weather observation at @p t. */
    virtual WeatherSample sample(util::SimTime t) const = 0;

    /** Outside dry-bulb temperature [°C] at @p t. */
    virtual double temperature(util::SimTime t) const
    {
        return sample(t).tempC;
    }

    /**
     * Mean temperature over [@p from, @p to] sampled at @p step_s
     * resolution.
     */
    double meanTemperature(util::SimTime from, util::SimTime to,
                           int64_t step_s = 600) const;
};

} // namespace environment
} // namespace coolair

#endif // COOLAIR_ENVIRONMENT_WEATHER_HPP
