#include "multizone/multizone.hpp"

#include <algorithm>
#include <utility>

#include "sim/scenario.hpp"
#include "util/logging.hpp"

namespace coolair {
namespace multizone {

const char *
policyName(BalancePolicy policy)
{
    switch (policy) {
      case BalancePolicy::RoundRobin:   return "round-robin";
      case BalancePolicy::CoolestFirst: return "coolest-first";
      case BalancePolicy::LeastLoaded:  return "least-loaded";
    }
    util::panic("policyName: unknown policy");
}

MultiZoneEngine::MultiZoneEngine(
    const MultiZoneConfig &config,
    const environment::WeatherProvider &climate,
    const std::function<std::unique_ptr<sim::Controller>(int zone)>
        &make_controller)
    : _config(config), _climate(climate)
{
    if (config.zones <= 0)
        util::fatal("MultiZoneConfig: need at least one zone");
    if (!make_controller)
        util::fatal("MultiZoneEngine: controller factory required");

    sim::EngineConfig ec;
    ec.physicsStepS = config.physicsStepS;
    ec.sampleIntervalS = sim::sampleIntervalFor(int64_t(config.physicsStepS));

    _zones.resize(size_t(config.zones));
    for (int z = 0; z < config.zones; ++z) {
        Zone &zone = _zones[size_t(z)];
        zone.plant = std::make_unique<plant::Plant>(
            config.plantConfig, config.seed + uint64_t(z) * 101);
        zone.cluster = std::make_unique<workload::ClusterSim>(
            config.clusterConfig, workload::Trace{});
        zone.controller = make_controller(z);
        if (!zone.controller)
            util::fatal("MultiZoneEngine: factory returned null");
        zone.metrics = std::make_unique<sim::MetricsCollector>(
            sim::MetricsConfig{}, config.plantConfig.numPods);
        zone.engine = std::make_unique<sim::Engine>(
            *zone.plant, *zone.cluster, *zone.controller, _climate, ec);
        zone.engine->setMetrics(zone.metrics.get());
    }
}

int
MultiZoneEngine::pickZone(const workload::Job &job)
{
    (void)job;
    switch (_config.policy) {
      case BalancePolicy::RoundRobin: {
        int z = _rrNext;
        _rrNext = (_rrNext + 1) % int(_zones.size());
        return z;
      }
      case BalancePolicy::CoolestFirst: {
        int best = 0;
        double best_temp = 1e18;
        for (int z = 0; z < int(_zones.size()); ++z) {
            // The warmest sensor governs a zone's violation exposure.
            double warm = 0.0;
            for (int p = 0;
                 p < _zones[size_t(z)].plant->config().numPods; ++p) {
                warm = std::max(
                    warm, _zones[size_t(z)].plant->truePodInletC(p));
            }
            if (warm < best_temp) {
                best_temp = warm;
                best = z;
            }
        }
        return best;
      }
      case BalancePolicy::LeastLoaded: {
        int best = 0;
        int best_busy = 1 << 30;
        for (int z = 0; z < int(_zones.size()); ++z) {
            int busy = _zones[size_t(z)].cluster->busySlots();
            if (busy < best_busy) {
                best_busy = busy;
                best = z;
            }
        }
        return best;
      }
    }
    util::panic("MultiZoneEngine::pickZone: unknown policy");
}

void
MultiZoneEngine::runDay(int day_of_year, const workload::Trace &trace)
{
    const sim::RunSegment day =
        sim::RunSegment::days(day_of_year, day_of_year + 1);

    // Jobs sorted by submission time.
    std::vector<workload::Job> jobs = trace.jobs;
    std::sort(jobs.begin(), jobs.end(),
              [](const workload::Job &a, const workload::Job &b) {
                  return a.submitS < b.submitS;
              });
    size_t next_job = 0;

    for (Zone &zone : _zones)
        zone.engine->startSegment(util::SimTime(day.warmStartS));

    const int64_t step = int64_t(_config.physicsStepS);
    const int64_t interval = sim::sampleIntervalFor(step);
    for (int64_t t = day.warmStartS; t < day.endS; t += step) {
        util::SimTime now(t);

        // Dispatch arriving jobs (day-relative submit times).
        while (next_job < jobs.size() &&
               day.startS + jobs[next_job].submitS <= t) {
            workload::Job job = jobs[next_job++];
            job.submitS += day.startS;  // absolute
            int z = pickZone(job);
            _zones[size_t(z)].cluster->submitJob(job, now);
            _zones[size_t(z)].jobsAssigned++;
        }

        const bool sample = (t - day.warmStartS) % interval == 0;
        const bool collect = t >= day.startS;
        for (Zone &zone : _zones)
            zone.engine->step(now, sample, collect);
    }
}

sim::Summary
MultiZoneEngine::zoneSummary(int zone) const
{
    if (zone < 0 || zone >= int(_zones.size()))
        util::panic("MultiZoneEngine::zoneSummary: zone out of range");
    return _zones[size_t(zone)].metrics->summary();
}

int64_t
MultiZoneEngine::zoneJobsAssigned(int zone) const
{
    if (zone < 0 || zone >= int(_zones.size()))
        util::panic("MultiZoneEngine::zoneJobsAssigned: out of range");
    return _zones[size_t(zone)].jobsAssigned;
}

int64_t
MultiZoneEngine::zoneJobsCompleted(int zone) const
{
    if (zone < 0 || zone >= int(_zones.size()))
        util::panic("MultiZoneEngine::zoneJobsCompleted: out of range");
    return _zones[size_t(zone)].cluster->stats().jobsCompleted;
}

sim::Summary
MultiZoneEngine::aggregateSummary() const
{
    sim::Summary total;
    double delivery = 0.08;
    for (const Zone &zone : _zones) {
        sim::Summary s = zone.metrics->summary();
        total.itKwh += s.itKwh;
        total.coolingKwh += s.coolingKwh;
        total.avgViolationC += s.avgViolationC;
        total.avgWorstDailyRangeC += s.avgWorstDailyRangeC;
        total.maxWorstDailyRangeC =
            std::max(total.maxWorstDailyRangeC, s.maxWorstDailyRangeC);
        total.days = std::max(total.days, s.days);
        delivery = zone.metrics->config().deliveryOverhead;
    }
    double n = double(_zones.size());
    total.avgViolationC /= n;
    total.avgWorstDailyRangeC /= n;
    if (total.itKwh > 0.0) {
        total.pue = (total.itKwh + total.coolingKwh +
                     delivery * total.itKwh) /
                    total.itKwh;
    }
    return total;
}

MultiZoneScenario
buildMultiZoneScenario(const sim::ExperimentSpec &spec, MultiZoneConfig config)
{
    MultiZoneScenario mz;
    mz.spec = spec;

    config.plantConfig = sim::plantConfigFor(spec);
    config.physicsStepS = spec.physicsStepS;
    config.seed = spec.seed;
    mz.config = config;

    mz.climate = std::make_unique<environment::Climate>(
        spec.location.makeClimate(spec.seed));
    mz.forecaster = std::make_unique<environment::Forecaster>(
        *mz.climate, spec.forecastError, spec.seed);

    environment::Forecaster *forecaster = mz.forecaster.get();
    mz.engine = std::make_unique<MultiZoneEngine>(
        mz.config, *mz.climate,
        [&spec, forecaster](int) {
            return sim::makeController(spec, forecaster);
        });
    return mz;
}

} // namespace multizone
} // namespace coolair
