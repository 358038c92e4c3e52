#include "sim/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/logging.hpp"

namespace coolair {
namespace sim {

MetricsCollector::MetricsCollector(const MetricsConfig &config, int num_pods)
    : _config(config),
      _numPods(num_pods),
      _ranges(size_t(num_pods)),
      _outsideRanges(1)
{
    if (num_pods <= 0)
        util::fatal("MetricsCollector: need at least one pod");
}

void
MetricsCollector::recordSample(util::SimTime now,
                               const plant::SensorReadings &sensors,
                               double dt_s, const double *outside_c)
{
    if (int(sensors.podInletC.size()) != _numPods)
        util::panic("MetricsCollector::record: pod arity mismatch");

    int day = int(now.seconds() / util::kSecondsPerDay);
    double max_inlet = sensors.maxPodInletC();
    _maxInletSum += max_inlet;
    if (max_inlet > _config.maxTempC)
        ++_violationSamples;

    for (int p = 0; p < _numPods; ++p) {
        double t = sensors.podInletC[size_t(p)];
        _ranges.record(day, size_t(p), t);
        _violationSum += std::max(0.0, t - _config.maxTempC);
    }

    if (sensors.coldAisleRhPercent > _config.maxRhPercent)
        _humidityViolations++;

    // Rate of change measured over a 10-minute window, so sensor noise
    // does not masquerade as fast temperature swings.
    while (_rateHead < _rateWindow.size() &&
           now.seconds() - _rateWindow[_rateHead].timeS > kRateWindowS) {
        _rateSpare.push_back(std::move(_rateWindow[_rateHead].temps));
        ++_rateHead;
    }
    if (_rateHead >= 16) {
        _rateWindow.erase(_rateWindow.begin(),
                          _rateWindow.begin() + long(_rateHead));
        _rateHead = 0;
    }
    if (_rateHead < _rateWindow.size() &&
        now.seconds() - _rateWindow[_rateHead].timeS >= kRateWindowS / 2) {
        const RateSample &old = _rateWindow[_rateHead];
        double hours =
            double(now.seconds() - old.timeS) / double(util::kSecondsPerHour);
        for (int p = 0; p < _numPods; ++p) {
            double rate = std::fabs(sensors.podInletC[size_t(p)] -
                                    old.temps[size_t(p)]) /
                          hours;
            if (rate > _config.maxRateCPerHour) {
                _rateViolations++;
                break;  // one violation per interval, like one reading
            }
        }
    }
    RateSample fresh;
    fresh.timeS = now.seconds();
    if (!_rateSpare.empty()) {
        fresh.temps = std::move(_rateSpare.back());
        _rateSpare.pop_back();
    }
    fresh.temps.assign(sensors.podInletC.begin(), sensors.podInletC.end());
    _rateWindow.push_back(std::move(fresh));

    _itJoules += sensors.itPowerW * dt_s;
    _coolingJoules += sensors.coolingPowerW * dt_s;
    _samples++;

    if (outside_c)
        _outsideRanges.record(day, 0, *outside_c);
}

Summary
MetricsCollector::summary() const
{
    Summary s;
    util::DailyRangeTracker ranges = _ranges;
    ranges.finish();

    s.avgViolationC =
        _samples > 0 && _numPods > 0
            ? _violationSum / double(_samples * size_t(_numPods))
            : 0.0;
    s.avgWorstDailyRangeC = ranges.averageWorstDailyRange();
    s.minWorstDailyRangeC = ranges.minWorstDailyRange();
    s.maxWorstDailyRangeC = ranges.maxWorstDailyRange();
    s.days = ranges.dayCount();

    s.itKwh = _itJoules / 3.6e6;
    s.coolingKwh = _coolingJoules / 3.6e6;
    if (s.itKwh > 0.0) {
        s.pue = (s.itKwh + s.coolingKwh +
                 _config.deliveryOverhead * s.itKwh) /
                s.itKwh;
    }
    if (_samples > 0) {
        s.humidityViolationFrac =
            double(_humidityViolations) / double(_samples);
        s.rateViolationFrac = double(_rateViolations) / double(_samples);
    }
    s.avgMaxInletC =
        _samples > 0 ? _maxInletSum / double(_samples) : 0.0;
    return s;
}

Summary
MetricsCollector::outsideSummary() const
{
    Summary s;
    util::DailyRangeTracker ranges = _outsideRanges;
    ranges.finish();
    s.avgWorstDailyRangeC = ranges.averageWorstDailyRange();
    s.minWorstDailyRangeC = ranges.minWorstDailyRange();
    s.maxWorstDailyRangeC = ranges.maxWorstDailyRange();
    s.days = ranges.dayCount();
    return s;
}

} // namespace sim
} // namespace coolair
