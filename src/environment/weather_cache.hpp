#ifndef COOLAIR_ENVIRONMENT_WEATHER_CACHE_HPP
#define COOLAIR_ENVIRONMENT_WEATHER_CACHE_HPP

/**
 * @file
 * Cached weather evaluation for the simulation hot loop.
 *
 * A year-long run queries the weather provider on a rigid grid: the
 * engine samples every physics step, the metrics/trace path reads the
 * same instants, and the Forecaster's hourly means walk a 300 s
 * sub-grid of the same timestamps.  Every one of those queries pays the
 * full sinusoid-bank evaluation of Climate::sample.
 *
 * CachedWeatherProvider decorates any WeatherProvider with a per-day
 * memo table on a fixed grid: each grid timestamp is evaluated through
 * the underlying provider exactly once and then served from the table,
 * so results are *bit-identical* to the direct path by construction
 * (no interpolation, no approximation).  Queries that fall off the grid
 * pass straight through to the underlying provider, also unchanged.
 *
 * Invariants:
 *  - A cached sample equals inner().sample(t) exactly (same object
 *    state, same arithmetic) — the cache only deduplicates calls.
 *  - The grid step divides both the day length and the Forecaster's
 *    300 s mean-temperature stride, so engine and forecaster queries
 *    share table entries.
 *  - Two day blocks are resident (the measured day plus the warm-up
 *    tail of the previous day); older blocks are evicted LRU with their
 *    storage reused.
 *
 * Thread safety: sample() fills the memo table lazily behind a const
 * interface (mutable state), so one instance must not be shared across
 * threads.  The scenario layer builds one provider per scenario and the
 * parallel sweep runner builds one scenario per worker, which keeps
 * every instance thread-private (covered by the sweep_tsan_smoke
 * target).  Disable per experiment with the `weather_cache = false`
 * spec key.
 */

#include <cstdint>
#include <vector>

#include "environment/weather.hpp"

namespace coolair {
namespace environment {

/**
 * The grid step [s] the scenario layer caches on for a physics step:
 * the largest step dividing the physics step, the Forecaster's 300 s
 * stride, and the day length.  Returns 0 (caching disabled, every
 * query passes through) for non-integral physics steps.
 */
int64_t weatherCacheGridStepS(double physics_step_s);

/** Exact memoizing decorator over a WeatherProvider. */
class CachedWeatherProvider : public WeatherProvider
{
  public:
    /**
     * @param inner       the provider to memoize (not owned; must
     *                    outlive this object)
     * @param grid_step_s memo grid resolution [s]; must divide the day
     *                    length.  <= 0 disables caching entirely.
     */
    CachedWeatherProvider(const WeatherProvider &inner, int64_t grid_step_s);

    WeatherSample sample(util::SimTime t) const override;

    /** The decorated provider. */
    const WeatherProvider &inner() const { return _inner; }

    /** Underlying sample() evaluations so far (for tests/diagnostics). */
    int64_t underlyingEvals() const { return _underlyingEvals; }

    /** Query-outcome counters, harvested once per run by the scenario. */
    struct CacheStats
    {
        int64_t hits = 0;         ///< served from a memo table entry
        int64_t misses = 0;       ///< grid query that filled an entry
        int64_t evictions = 0;    ///< day blocks recycled (LRU)
        int64_t passthrough = 0;  ///< off-grid / cache-disabled queries
    };

    CacheStats cacheStats() const { return _stats; }

  private:
    /** One day-aligned window of memoized grid samples. */
    struct Block
    {
        int64_t startS = 0;
        bool active = false;
        std::vector<WeatherSample> samples;
        std::vector<uint8_t> filled;
    };

    Block &blockFor(int64_t block_start) const;

    const WeatherProvider &_inner;
    int64_t _gridStepS;
    size_t _entriesPerBlock;

    mutable Block _blocks[2];
    mutable int _mru = 0;
    mutable int64_t _underlyingEvals = 0;
    mutable CacheStats _stats;
};

} // namespace environment
} // namespace coolair

#endif // COOLAIR_ENVIRONMENT_WEATHER_CACHE_HPP
