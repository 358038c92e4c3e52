/**
 * @file
 * Command-line experiment runner: any experiment the scenario layer can
 * assemble, described entirely by a spec (§5.1 year runs, single days,
 * day ranges, trace dumps), plus learned-model caching on disk so
 * repeated invocations skip the learning campaign.
 *
 * Usage:
 *   experiment_cli [options] [key=value ...]
 *     --spec <file>           load a spec file (see examples/specs/)
 *     key=value               override any spec key (applied in order)
 *     --list-keys             print every spec key with its default
 *                             and domain, and exit
 *     --list-systems          print the system keys and exit
 *     --list-locations        print the named-site keys and exit
 *     --model-cache <path>    save/load the learned bundle
 *     --reliability           also print the AFR multipliers
 *     --cache-dir <dir>       = cache_dir=<dir>: persistent result
 *                             store; a repeat invocation with the same
 *                             spec serves the result from disk
 *     --cache-stats           print the result store's counters and
 *                             on-disk footprint after the run
 *     --cache-verify          on a cache hit, re-run the experiment
 *                             uncached and assert the result is
 *                             bit-identical to the cached one (exit 1
 *                             and count a verify failure if not)
 *
 *   Legacy convenience flags (equivalent to the assignments shown):
 *     --site <s>        = site=<s>
 *     --system <s>      = system=<s>
 *     --workload <w>    = workload=<w>
 *     --weeks <n>       = weeks=<n>
 *     --max-temp <C>    = max_temp=<C>
 *     --forecast-bias <C> = forecast_bias=<C>
 *     --report <path>   = report_json=<path>   (RunReport JSON manifest)
 *     --trace-out <path> = trace_json=<path>   (Chrome trace-event JSON,
 *                                               loadable in Perfetto)
 *
 * Examples:
 *   experiment_cli --spec examples/specs/fig8_newark_allnd.spec
 *   experiment_cli --site iceland --system allnd --model-cache /tmp/m.txt
 *   experiment_cli system=energydef weeks=12 seed=11
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>

#include "environment/location.hpp"
#include "model/serialize.hpp"
#include "obs/stats.hpp"
#include "reliability/disk_reliability.hpp"
#include "sim/experiment.hpp"
#include "sim/result_cache.hpp"
#include "sim/spec_io.hpp"
#include "store/result_store.hpp"

using namespace coolair;

namespace {

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr, "error: %s\n(see the header comment in "
                         "examples/experiment_cli.cpp for usage)\n",
                 msg);
    std::exit(2);
}

void
listSystems()
{
    std::printf("%-12s %-16s %s\n", "key", "name", "defers jobs");
    for (sim::SystemId id : sim::allSystemIds())
        std::printf("%-12s %-16s %s\n", sim::systemKey(id),
                    sim::systemName(id),
                    sim::systemIsDeferrable(id) ? "yes" : "no");
}

void
listLocations()
{
    std::printf("%-12s %-10s %10s %10s\n", "key", "name", "lat", "lon");
    for (environment::NamedSite site : environment::allNamedSites()) {
        environment::Location loc = environment::namedLocation(site);
        std::printf("%-12s %-10s %10.2f %10.2f\n", sim::siteKey(site),
                    environment::siteName(site), loc.latitude,
                    loc.longitude);
    }
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        usage(("cannot open spec file: " + path).c_str());
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    sim::ExperimentSpec spec;
    spec.location = environment::namedLocation(
        environment::NamedSite::Newark);
    spec.system = sim::SystemId::AllNd;
    bool want_reliability = false;
    bool cache_stats = false;
    bool cache_verify = false;
    std::string model_cache;

    try {
        for (int i = 1; i < argc; ++i) {
            std::string arg = argv[i];
            auto next = [&]() -> std::string {
                if (i + 1 >= argc)
                    usage(("missing value for " + arg).c_str());
                return argv[++i];
            };
            if (arg == "--spec") {
                sim::applySpecText(spec, readFile(next()));
            } else if (arg == "--list-keys") {
                std::fputs(sim::formatSpecKeyTable().c_str(), stdout);
                return 0;
            } else if (arg == "--list-systems") {
                listSystems();
                return 0;
            } else if (arg == "--list-locations") {
                listLocations();
                return 0;
            } else if (arg == "--site") {
                sim::applySpecAssignment(spec, "site=" + next());
            } else if (arg == "--system") {
                sim::applySpecAssignment(spec, "system=" + next());
            } else if (arg == "--workload") {
                sim::applySpecAssignment(spec, "workload=" + next());
            } else if (arg == "--weeks") {
                sim::applySpecAssignment(spec, "weeks=" + next());
            } else if (arg == "--max-temp") {
                sim::applySpecAssignment(spec, "max_temp=" + next());
            } else if (arg == "--forecast-bias") {
                sim::applySpecAssignment(spec, "forecast_bias=" + next());
            } else if (arg == "--report") {
                sim::applySpecAssignment(spec, "report_json=" + next());
            } else if (arg == "--trace-out") {
                sim::applySpecAssignment(spec, "trace_json=" + next());
            } else if (arg == "--model-cache") {
                model_cache = next();
            } else if (arg == "--cache-dir") {
                sim::applySpecAssignment(spec, "cache_dir=" + next());
            } else if (arg == "--cache-stats") {
                cache_stats = true;
            } else if (arg == "--cache-verify") {
                cache_verify = true;
            } else if (arg == "--reliability") {
                want_reliability = true;
            } else if (arg.find('=') != std::string::npos &&
                       arg.rfind("--", 0) != 0) {
                sim::applySpecAssignment(spec, arg);
            } else {
                usage(("unknown option: " + arg).c_str());
            }
        }
    } catch (const std::invalid_argument &e) {
        usage(e.what());
    }

    // Warm the process-wide bundle from the cache if present; write it
    // back afterwards so the next invocation skips the campaign.
    // (The scenario layer uses the shared bundle internally; the cache
    // demonstrates the save/load path and validates the file.)
    if (!model_cache.empty()) {
        std::ifstream probe(model_cache);
        if (probe.good()) {
            model::LearnedBundle loaded =
                model::loadBundleFromFile(model_cache);
            std::fprintf(stderr,
                         "loaded %zu temperature models from %s\n",
                         loaded.fittedTempModels, model_cache.c_str());
        }
    }

    std::fprintf(stderr, "running this spec:\n%s",
                 sim::formatSpec(spec).c_str());
    // The CLI owns its result store (instead of letting runExperiment
    // open one internally) so it can report hit/miss, verify hits, and
    // print the counters the run accumulated.
    std::optional<store::ResultStore> st;
    bool from_cache = false;
    sim::ExperimentResult r;
    try {
        if (sim::resultCacheUsable(spec)) {
            st.emplace(spec.cacheDirPath, sim::kResultCacheSalt,
                       sim::kResultFormatVersion);
            r = sim::runExperimentCached(spec, *st, &from_cache);
        } else {
            r = sim::runExperiment(spec);
        }
    } catch (const std::exception &e) {
        usage(e.what());
    }
    if (st && from_cache)
        std::fprintf(stderr, "result served from cache: %s\n",
                     st->entryPath(sim::resultCacheId(spec)).c_str());

    if (cache_verify && st && from_cache) {
        // Re-run the sampled hit with the cache off and demand the
        // result reproduce the cached one bit for bit.
        sim::ExperimentSpec fresh = spec;
        fresh.cacheDirPath.clear();
        fresh.reportJsonPath.clear();
        sim::ExperimentResult rerun = sim::runExperiment(fresh);
        if (sim::formatResult(rerun) != sim::formatResult(r)) {
            st->noteVerifyFailure();
            std::fprintf(stderr,
                         "cache-verify FAILED: re-run did not reproduce "
                         "the cached result (stale salt? bump "
                         "kResultCacheSalt)\n");
            return 1;
        }
        std::fprintf(stderr, "cache-verify ok: re-run reproduced the "
                             "cached result bit for bit\n");
    }

    if (st && obs::enabled())
        st->addStats(obs::registry());

    if (!model_cache.empty())
        model::saveBundleToFile(sim::sharedBundle(), model_cache);

    std::printf("site                     %s\n", spec.location.name.c_str());
    std::printf("system                   %s\n",
                sim::systemName(spec.system));
    std::printf("avg violation >%g C      %.3f C\n", spec.maxTempC,
                r.system.avgViolationC);
    std::printf("avg worst daily range    %.2f C\n",
                r.system.avgWorstDailyRangeC);
    std::printf("max worst daily range    %.2f C (outside: %.2f C)\n",
                r.system.maxWorstDailyRangeC,
                r.outside.maxWorstDailyRangeC);
    std::printf("PUE                      %.3f\n", r.system.pue);
    std::printf("IT / cooling energy      %.1f / %.1f kWh\n",
                r.system.itKwh, r.system.coolingKwh);
    std::printf("humidity violations      %.1f %% of samples\n",
                100.0 * r.system.humidityViolationFrac);

    if (want_reliability) {
        reliability::DiskReliabilityModel model;
        auto rep = model.assess(r.system);
        std::printf("AFR multiplier           %.2fx (temp %.2fx, "
                    "variation %.2fx)\n",
                    rep.afrMultiplier, rep.temperatureFactor,
                    rep.variationFactor);
    }

    if (cache_stats) {
        if (!st) {
            std::printf("cache                    disabled "
                        "(no cache_dir, or trace outputs requested)\n");
        } else {
            const store::StoreStats s = st->stats();
            const store::ResultStore::DiskUsage du = st->diskUsage();
            std::printf("cache dir                %s\n", st->dir().c_str());
            std::printf("cache lookups            %lld (%lld hits, "
                        "%lld misses)\n",
                        (long long)s.lookups, (long long)s.hits,
                        (long long)s.misses);
            std::printf("cache stores             %lld (%lld failed)\n",
                        (long long)s.stores, (long long)s.storeFailures);
            std::printf("cache dropped entries    %lld stale, "
                        "%lld corrupt, %lld collided\n",
                        (long long)s.staleEntries, (long long)s.corruptEntries,
                        (long long)s.collisions);
            std::printf("cache verify failures    %lld\n",
                        (long long)s.verifyFailures);
            std::printf("cache bytes read/written %lld / %lld\n",
                        (long long)s.bytesRead, (long long)s.bytesWritten);
            std::printf("cache on disk            %llu entries, "
                        "%llu bytes\n",
                        (unsigned long long)du.entries,
                        (unsigned long long)du.bytes);
        }
    }
    return 0;
}
