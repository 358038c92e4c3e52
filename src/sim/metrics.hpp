#ifndef COOLAIR_SIM_METRICS_HPP
#define COOLAIR_SIM_METRICS_HPP

/**
 * @file
 * Run metrics matching the paper's evaluation measures:
 *
 *  - average temperature violation above the desired maximum (Fig. 8):
 *    readings at or below the max contribute 0, readings above
 *    contribute (reading - max), averaged over all sensor readings;
 *  - worst daily temperature range (Fig. 9): per day, per sensor
 *    max - min, the worst sensor per day, then the average / min / max
 *    of those worst ranges across days;
 *  - yearly PUE including Parasol's 0.08 power-delivery overhead
 *    (Fig. 10): (IT + cooling + 0.08 x IT) / IT over the whole run;
 *  - humidity-ceiling and change-rate violation fractions;
 *  - cooling energy [kWh] for the §5.2 cost analysis.
 */

#include <vector>

#include "plant/parasol.hpp"
#include "util/sim_time.hpp"
#include "util/stats.hpp"

namespace coolair {
namespace sim {

/** Metric configuration. */
struct MetricsConfig
{
    /** The desired maximum temperature for violations [°C]. */
    double maxTempC = 30.0;

    /** Relative-humidity ceiling [%]. */
    double maxRhPercent = 80.0;

    /** ASHRAE change-rate limit [°C/hour]. */
    double maxRateCPerHour = 20.0;

    /** PUE overhead for power delivery (Parasol: 0.08). */
    double deliveryOverhead = 0.08;
};

/** Aggregated results of one run. */
struct Summary
{
    double avgViolationC = 0.0;        ///< Fig. 8 metric.
    double avgWorstDailyRangeC = 0.0;  ///< Fig. 9 bar.
    double minWorstDailyRangeC = 0.0;  ///< Fig. 9 whisker bottom.
    double maxWorstDailyRangeC = 0.0;  ///< Fig. 9 whisker top.
    double pue = 1.0;                  ///< Fig. 10 metric.
    double itKwh = 0.0;
    double coolingKwh = 0.0;
    double humidityViolationFrac = 0.0;
    double rateViolationFrac = 0.0;
    double avgMaxInletC = 0.0;         ///< Mean of per-reading max inlet.
    size_t days = 0;

    friend bool operator==(const Summary &, const Summary &) = default;
};

/** Streaming collector fed by the engine. */
class MetricsCollector
{
  public:
    MetricsCollector(const MetricsConfig &config, int num_pods);

    /**
     * Record one observation interval.
     *
     * @param now      timestamp of the reading
     * @param sensors  sensor snapshot
     * @param dt_s     seconds this snapshot represents (for energy)
     */
    void record(util::SimTime now, const plant::SensorReadings &sensors,
                double dt_s)
    {
        recordSample(now, sensors, dt_s, nullptr);
    }

    /**
     * record() that also tracks the outside temperature @p outside_c
     * (Fig. 9's Outside bars): the engines' per-sample path.
     */
    void record(util::SimTime now, const plant::SensorReadings &sensors,
                double dt_s, double outside_c)
    {
        recordSample(now, sensors, dt_s, &outside_c);
    }

    /** Finalize open days and compute the summary. */
    Summary summary() const;

    /** Summary of the outside-temperature ranges. */
    Summary outsideSummary() const;

    /** The configuration in effect. */
    const MetricsConfig &config() const { return _config; }

    /** Samples whose max pod inlet exceeded the desired maximum (the
        numerator of the paper's violation-minutes figure). */
    int64_t violationSamples() const { return _violationSamples; }

  private:
    void recordSample(util::SimTime now,
                      const plant::SensorReadings &sensors, double dt_s,
                      const double *outside_c);

    MetricsConfig _config;
    int _numPods;

    util::DailyRangeTracker _ranges;
    util::DailyRangeTracker _outsideRanges;
    /** Plain sums (means are computed once in summary()): only the
        averages are ever read, and a running Welford accumulator would
        spend a divide per pod per sample on the engine's hot path. */
    double _violationSum = 0.0;
    double _maxInletSum = 0.0;
    double _itJoules = 0.0;
    double _coolingJoules = 0.0;
    size_t _humidityViolations = 0;
    size_t _rateViolations = 0;
    size_t _samples = 0;
    int64_t _violationSamples = 0;

    /** Ring of (time, per-pod temps) for windowed rate measurement. */
    struct RateSample
    {
        int64_t timeS;
        std::vector<double> temps;
    };
    std::vector<RateSample> _rateWindow;

    /** Index of the oldest live entry in _rateWindow.  Expiry advances
        the head instead of erasing (which would shift the whole vector
        every sample); the dead prefix is compacted away once it grows
        past a handful of entries. */
    size_t _rateHead = 0;

    /** Temp buffers recycled from expired rate samples, so the
        per-sample record() path stays allocation-free in steady state. */
    std::vector<std::vector<double>> _rateSpare;

    /** Rate is measured over this window [s] (noise-robust). */
    static constexpr int64_t kRateWindowS = 600;
};

} // namespace sim
} // namespace coolair

#endif // COOLAIR_SIM_METRICS_HPP
