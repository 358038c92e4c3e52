/**
 * @file
 * year-oracle: the scalar Engine on one thread over the five named
 * sites x {baseline, allnd}, task-level Facebook workload, 52-week
 * YearWeekly at the default 30 s step.  This is the bit-exact oracle
 * every figure rests on; it never touches the store, serve, the
 * batched kernels or the runner.
 *
 * Inputs from --seed: each (site, system) pair draws its spec seed from
 * kSeedPool, and the run order is a seeded shuffle.  Every spec's
 * formatResult bytes are checked against the digest recorded for it in
 * perfbench/reference/year_oracle.digests.
 */

#include <cstdio>
#include <fstream>

#include "harness.hpp"
#include "layers.hpp"
#include "obs/stats.hpp"
#include "sim/experiment.hpp"
#include "sim/scenario.hpp"
#include "sim/spec_io.hpp"

namespace perfbench {

namespace sim = coolair::sim;

namespace {

const char *const kSites[] = {"newark", "chad", "santiago", "iceland",
                              "singapore"};
const char *const kSystems[] = {"baseline", "allnd"};
const uint64_t kSeedPool[] = {7, 11, 13, 17};

struct OracleSpec
{
    std::string key;   ///< "<site> <system> <seed>" (digest-file key)
    std::string text;  ///< spec text handed to the library
    bool allnd = false;
    double simMinutes = 0.0;
};

OracleSpec
makeSpec(const char *site, const char *system, uint64_t seed)
{
    OracleSpec s;
    s.key = std::string(site) + " " + system + " " + std::to_string(seed);
    s.text = std::string("site = ") + site + "\nsystem = " + system +
             "\nseed = " + std::to_string(seed) + "\n";
    s.allnd = std::string(system) == "allnd";
    // 52 sampled days, each a 2 h warm-up plus the measured day.
    s.simMinutes = 52.0 * (24 * 60 + 2 * 60);
    return s;
}

/** The seed's specs, in the seed's run order. */
std::vector<OracleSpec>
specsForSeed(uint64_t seed)
{
    std::vector<OracleSpec> specs;
    uint64_t h = mix64(seed);
    for (const char *system : kSystems)
        for (const char *site : kSites) {
            h = mix64(h);
            specs.push_back(makeSpec(site, system, kSeedPool[h % 4]));
        }
    for (size_t i = specs.size() - 1; i > 0; --i) {
        h = mix64(h);
        std::swap(specs[i], specs[h % (i + 1)]);
    }
    return specs;
}

std::map<std::string, std::string>
loadDigests(const std::string &path)
{
    std::map<std::string, std::string> out;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        const size_t tab = line.rfind(' ');
        if (tab != std::string::npos)
            out[line.substr(0, tab)] = line.substr(tab + 1);
    }
    return out;
}

double
ms(int64_t ns)
{
    return double(ns) / 1e6;
}

} // anonymous namespace

int
recordYearOracleDigests(const Options &opt)
{
    std::ofstream out(opt.digestPath, std::ios::trunc);
    if (!out) {
        std::fprintf(stderr, "cannot write %s\n", opt.digestPath.c_str());
        return 1;
    }
    out << "# FNV-1a-64 of sim::formatResult for each year-oracle spec\n"
        << "# (site system seed digest); written by coolair_perfbench "
           "--record-digests\n";
    for (const char *system : kSystems)
        for (const char *site : kSites)
            for (uint64_t seed : kSeedPool) {
                const OracleSpec s = makeSpec(site, system, seed);
                const std::string bytes = sim::formatResult(
                    sim::runExperiment(sim::parseSpec(s.text)));
                out << s.key << " " << digestHex(bytes) << "\n";
            }
    return out ? 0 : 1;
}

Outcome
runYearOracle(const Options &opt)
{
    Outcome o;
    const std::vector<OracleSpec> specs = specsForSeed(opt.seed);
    const std::map<std::string, std::string> digests =
        loadDigests(opt.digestPath);
    if (digests.empty())
        o.fail("no reference digests in " + opt.digestPath);

    // Setup: the learning campaign plus first-touch assembly of every
    // spec's stack (trace generation, climate, forecaster, weather
    // grid cache), repeated before the passes and once after each;
    // setup_s is the median.
    std::vector<double> setup_s, learn_s, build_ms;
    auto setupOnce = [&] {
        const Clock::time_point t0 = Clock::now();
        learn_s.push_back(learningCampaign());
        for (const OracleSpec &s : specs) {
            const Clock::time_point b0 = Clock::now();
            auto scenario = sim::ScenarioBuilder(sim::parseSpec(s.text)).build();
            build_ms.push_back(secondsSince(b0) * 1e3);
        }
        setup_s.push_back(secondsSince(t0));
    };
    for (int r = 0; r < kSetupRepeats; ++r)
        setupOnce();

    // Per spec, its time in every pass: metrics use each spec's median
    // over passes, so a host stall during one spec of one pass (they
    // last up to ~1 s on shared hosts) does not move them.  The
    // reference kernel runs right before each spec, and spec_ref_ms is
    // the spec's time scaled by it to the reference speed.
    std::vector<std::vector<double>> spec_ms(specs.size()),
        spec_ref_ms(specs.size());
    std::vector<double> kernel_ms;
    std::vector<double> pass_rate;
    // Traced-run accumulators (per pass, summed over specs).
    std::vector<double> overhead, parse_us;
    LayerTotals env{}, step{}, load{}, core{}, root{};
    int64_t cache_hits = 0, cache_misses = 0, rollouts = 0, abandoned = 0,
            candidates = 0;
    int passes = 0;
    SpanBuffer spans;

    const Clock::time_point start = Clock::now();
    while (passes == 0 || secondsSince(start) < opt.seconds) {
        double pass_wall = 0.0, pass_minutes = 0.0, traced_wall = 0.0;
        for (size_t i = 0; i < specs.size(); ++i) {
            const OracleSpec &s = specs[i];
            ++o.attempted;
            std::string bytes;
            kernel_ms.push_back(referenceKernelMs());
            const int64_t t0 = nowNs();
            try {
                sim::ExperimentSpec spec = sim::parseSpec(s.text);
                if (opt.trace)
                    parse_us.push_back(ms(nowNs() - t0) * 1e3);
                bytes = sim::formatResult(sim::runExperiment(spec));
            } catch (const std::exception &e) {
                ++o.failed;
                o.fail(s.key + ": " + e.what());
                continue;
            }
            const int64_t dur = nowNs() - t0;
            pass_wall += double(dur) / 1e9;
            pass_minutes += s.simMinutes;
            spec_ms[i].push_back(ms(dur));
            spec_ref_ms[i].push_back(
                atReferenceSpeed(ms(dur), kernel_ms.back()));
            auto d = digests.find(s.key);
            if (d == digests.end() || d->second != digestHex(bytes)) {
                ++o.failed;
                o.fail(s.key + ": result differs from the reference digest");
            }
            if (!opt.trace)
                continue;
            spans.add({"oracle " + s.key, t0, dur, 0, {}});

            // Traced: the same spec through decorated parts.
            DecoratedRun run(sim::parseSpec(s.text));
            const LayerTotals before[] = {
                layerTotals(Layer::EnvSample), layerTotals(Layer::WorkloadStep),
                layerTotals(Layer::WorkloadLoad),
                layerTotals(Layer::CoreControl), layerTotals(Layer::EngineRun)};
            const int64_t r0 = nowNs();
            const std::string traced = sim::formatResult(run.runYear());
            const int64_t rdur = nowNs() - r0;
            traced_wall += double(rdur) / 1e9;
            if (traced != bytes)
                o.fail(s.key + ": traced result differs from the untraced one");

            LayerTotals delta[5];
            int64_t self_sum = 0;
            for (int l = 0; l < 5; ++l) {
                const LayerTotals &now = layerTotals(Layer(l));
                delta[l] = {now.calls - before[l].calls,
                            now.selfNs - before[l].selfNs,
                            now.totalNs - before[l].totalNs};
                self_sum += delta[l].selfNs;
                if (delta[l].selfNs < 0)
                    o.fail(s.key + ": negative self time");
            }
            // Self times partition the root span: every timed call
            // nests under runYearWeekly.
            if (self_sum != delta[4].totalNs)
                o.fail(s.key + ": layer self times do not sum to the "
                               "runYearWeekly wall time");
            auto add = [](LayerTotals &acc, const LayerTotals &d) {
                acc.calls += d.calls;
                acc.selfNs += d.selfNs;
                acc.totalNs += d.totalNs;
            };
            add(env, delta[0]);
            add(step, delta[1]);
            add(load, delta[2]);
            add(root, delta[4]);
            if (s.allnd)
                add(core, delta[3]);
            spans.add({"sim.engine.runYearWeekly " + s.key, r0, rdur, 1,
                       {{"environment_self_ms", ms(delta[0].selfNs)},
                        {"workload_step_self_ms", ms(delta[1].selfNs)},
                        {"workload_load_self_ms", ms(delta[2].selfNs)},
                        {"control_self_ms", ms(delta[3].selfNs)},
                        {"engine_self_ms", ms(delta[4].selfNs)}}});

            if (run.cache) {
                cache_hits += run.cache->cacheStats().hits;
                cache_misses += run.cache->cacheStats().misses;
            }
            if (s.allnd) {
                coolair::obs::StatsRegistry reg;
                run.controller->addStats(reg);
                for (const auto &e : reg.snapshot()) {
                    if (e.name == "predictor.rollouts")
                        rollouts += e.counterValue;
                    else if (e.name == "predictor.rollouts_abandoned")
                        abandoned += e.counterValue;
                    else if (e.name == "optimizer.candidates")
                        candidates += e.counterValue;
                }
            }
        }
        ++passes;
        if (pass_wall > 0.0)
            pass_rate.push_back(pass_minutes / pass_wall);
        if (opt.trace && pass_wall > 0.0)
            overhead.push_back(traced_wall / pass_wall - 1.0);
        setupOnce();
    }

    o.shape = "{\"sites\": [\"newark\", \"chad\", \"santiago\", "
              "\"iceland\", \"singapore\"], \"systems\": [\"baseline\", "
              "\"allnd\"], \"workload\": \"facebook\", \"weeks\": 52, "
              "\"physics_step_s\": 30, \"spec_seed_pool\": [7, 11, 13, 17], "
              "\"engine_threads\": 1}";
    o.set("setup_s", median(setup_s), "s");
    std::vector<double> median_ms, median_ref_ms;
    double pass_ms = 0.0, pass_minutes = 0.0;
    for (size_t i = 0; i < specs.size(); ++i) {
        if (spec_ms[i].empty())
            continue;
        median_ms.push_back(median(spec_ms[i]));
        median_ref_ms.push_back(median(spec_ref_ms[i]));
        pass_ms += median_ms.back();
        pass_minutes += specs[i].simMinutes;
    }
    o.set("sim_min_per_s", pass_minutes / (pass_ms / 1e3), "sim-min/s");
    o.set("latency_p50_ref_ms", quantile(median_ref_ms, 0.50), "ref-ms");
    o.set("latency_p99_ref_ms", quantile(median_ref_ms, 0.99), "ref-ms");
    o.set("latency_p50_ms", quantile(median_ms, 0.50), "ms");
    o.set("latency_p99_ms", quantile(median_ms, 0.99), "ms");
    o.set("host.ref_kernel_ms", median(kernel_ms), "ms");
    o.set("max_rate_rps", double(median_ms.size()) / (pass_ms / 1e3),
          "req/s");
    o.set("peak_rss_mb", peakRssMb(), "MiB");
    std::string rates;
    for (double r : pass_rate)
        rates += " " + std::to_string(int64_t(r));
    o.notes.push_back("year-oracle: " + std::to_string(passes) +
                      " passes x " + std::to_string(specs.size()) +
                      " specs; sim-min/s per pass:" + rates);

    if (opt.trace) {
        const double p = passes;
        o.set("environment.sample.calls", env.calls / p, "count");
        o.set("environment.sample.self_ms", ms(env.selfNs) / p, "ms");
        o.set("environment.cache.hit_ratio",
              cache_hits + cache_misses
                  ? double(cache_hits) / double(cache_hits + cache_misses)
                  : 0.0,
              "ratio");
        o.set("workload.step.calls", step.calls / p, "count");
        o.set("workload.step.self_ms", ms(step.selfNs) / p, "ms");
        o.set("workload.load.self_ms", ms(load.selfNs) / p, "ms");
        o.set("core.control.calls", core.calls / p, "count");
        o.set("core.control.self_ms", ms(core.selfNs) / p, "ms");
        o.set("core.predictor.abandon_ratio",
              rollouts ? double(abandoned) / double(rollouts) : 0.0, "ratio");
        o.set("core.optimizer.candidates", candidates / p, "count");
        o.set("sim.engine.self_ms", ms(root.selfNs) / p, "ms");
        o.set("model.learn_s", median(learn_s), "s");
        o.set("sim.build.self_ms", median(build_ms), "ms");
        o.set("sim.parse_spec.self_us", median(parse_us), "us");
        o.set("trace.overhead_frac", median(overhead), "ratio");
        const std::string path = opt.workDir + "/trace-year-oracle.json";
        if (!spans.writeChromeTrace(path))
            o.fail("cannot write " + path);
    }
    return o;
}

} // namespace perfbench
