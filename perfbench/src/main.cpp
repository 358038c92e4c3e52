/**
 * @file
 * coolair_perfbench: the benchmark's one executable.
 *
 *   coolair_perfbench --workload <year-oracle|sweep-batched|serve-mixed>
 *                     --seed <n> --seconds <s> --trace <0|1>
 *                     [--work-dir <dir>] [--digests <file>]
 *   coolair_perfbench --record-digests [--digests <file>]
 *
 * Prints notes and one context line, then, as the last line of stdout,
 * one JSON object {"correct", "attempted", "failed", "metrics"}.  With
 * --trace 0 the metrics are the end-to-end set, with --trace 1 the
 * per-layer set; both sets are fixed here and in BENCHMARK.json (a
 * per-layer metric a workload does not exercise reads 0).  Exits 1
 * when an output check failed.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "harness.hpp"

using namespace perfbench;

namespace {

struct MetricName
{
    const char *name;
    const char *unit;
};

const MetricName kEndToEnd[] = {
    {"setup_s", "s"},
    {"latency_p50_ref_ms", "ref-ms"},
    {"latency_p99_ref_ms", "ref-ms"},
    {"peak_rss_mb", "MiB"},
};

/** Wall-clock latencies behind the *_ref_ms metrics and the kernel
    time that scales them; per-layer, and a note on untraced runs. */
const MetricName kWallClock[] = {
    {"latency_p50_ms", "ms"},
    {"latency_p99_ms", "ms"},
    {"host.ref_kernel_ms", "ms"},
};

const MetricName kPerLayer[] = {
    {"latency_p50_ms", "ms"},
    {"latency_p99_ms", "ms"},
    {"host.ref_kernel_ms", "ms"},
    {"sim_min_per_s", "sim-min/s"},
    {"max_rate_rps", "req/s"},
    {"environment.sample.calls", "count"},
    {"environment.sample.self_ms", "ms"},
    {"environment.cache.hit_ratio", "ratio"},
    {"workload.step.calls", "count"},
    {"workload.step.self_ms", "ms"},
    {"workload.load.self_ms", "ms"},
    {"core.control.calls", "count"},
    {"core.control.self_ms", "ms"},
    {"core.predictor.abandon_ratio", "ratio"},
    {"core.optimizer.candidates", "count"},
    {"sim.engine.self_ms", "ms"},
    {"model.learn_s", "s"},
    {"sim.build.self_ms", "ms"},
    {"sim.batch.build.self_ms", "ms"},
    {"sim.batch.run.self_ms", "ms"},
    {"sim.batch.lane_fill", "ratio"},
    {"sim.batch.ragged_tail_lanes", "count"},
    {"sim.batch.err_max", "ratio"},
    {"runner.busy_frac", "ratio"},
    {"runner.queue_wait_ms", "ms"},
    {"serve.submit.self_us", "us"},
    {"serve.transport_us", "us"},
    {"sim.parse_spec.self_us", "us"},
    {"sim.result_id.self_us", "us"},
    {"store.hot.lookup_us", "us"},
    {"store.disk.lookup_us", "us"},
    {"serve.wait.self_ms", "ms"},
    {"serve.hot_latency_p99_ms", "ms"},
    {"serve.hot_hit_ratio", "ratio"},
    {"serve.store_hits", "count"},
    {"serve.dedup_hits", "count"},
    {"serve.runs", "count"},
    {"serve.coalesced", "count"},
    {"serve.lane_fill_mean", "lanes"},
    {"serve.rejected_busy", "count"},
    {"serve.low_rate_p99_ms", "ms"},
    {"trace.overhead_frac", "ratio"},
    {"gen.late_ms_p99", "ms"},
    {"failed_frac", "ratio"},
};

int
usage()
{
    std::fprintf(stderr,
                 "usage: coolair_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--work-dir <dir>] "
                 "[--digests <file>]\n"
                 "       coolair_perfbench --record-digests "
                 "[--digests <file>]\n");
    return 2;
}

bool
parseNumber(const char *text, double &out)
{
    char *end = nullptr;
    out = std::strtod(text, &end);
    return end != text && *end == '\0' && std::isfinite(out);
}

std::string
jsonNumber(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    return buf;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    Options opt;
    bool record = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        double v = 0.0;
        if (arg == "--record-digests") {
            record = true;
        } else if (arg == "--workload" && has_value) {
            opt.workload = argv[++i];
        } else if (arg == "--seed" && has_value && parseNumber(argv[++i], v) &&
                   v >= 0) {
            opt.seed = uint64_t(v);
        } else if (arg == "--seconds" && has_value &&
                   parseNumber(argv[++i], v) && v > 0) {
            opt.seconds = v;
        } else if (arg == "--trace" && has_value &&
                   parseNumber(argv[++i], v) && (v == 0 || v == 1)) {
            opt.trace = v == 1;
        } else if (arg == "--work-dir" && has_value) {
            opt.workDir = argv[++i];
        } else if (arg == "--digests" && has_value) {
            opt.digestPath = argv[++i];
        } else {
            return usage();
        }
    }
    if (record)
        return recordYearOracleDigests(opt);

    std::filesystem::create_directories(opt.workDir);
    Outcome o;
    if (opt.workload == "year-oracle")
        o = runYearOracle(opt);
    else if (opt.workload == "sweep-batched")
        o = runSweepBatched(opt);
    else if (opt.workload == "serve-mixed")
        o = runServeMixed(opt);
    else
        return usage();

    if (o.attempted < 1)
        o.fail("no operation attempted");
    o.set("failed_frac",
          o.attempted ? double(o.failed) / double(o.attempted) : 1.0,
          "ratio");

    std::printf("{\"context\": {\"workload\": \"%s\", \"seed\": %llu, "
                "\"seconds\": %s, \"trace\": %d, \"nproc\": %u, "
                "\"threads\": %d, \"build_type\": \"%s\", "
                "\"compiler\": \"%s\", \"shape\": %s}}\n",
                opt.workload.c_str(), (unsigned long long)opt.seed,
                jsonNumber(opt.seconds).c_str(), int(opt.trace),
                std::thread::hardware_concurrency(), benchThreads(),
                PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER, o.shape.c_str());

    std::string metrics;
    auto emit = [&](const MetricName &m, bool required) {
        auto it = o.metrics.find(m.name);
        if (it == o.metrics.end() && required)
            o.fail(std::string("metric not measured: ") + m.name);
        const double value = it == o.metrics.end() ? 0.0 : it->second.value;
        if (!metrics.empty())
            metrics += ", ";
        metrics += std::string("\"") + m.name + "\": {\"value\": " +
                   jsonNumber(value) + ", \"unit\": \"" + m.unit + "\"}";
    };
    if (opt.trace)
        for (const MetricName &m : kPerLayer)
            emit(m, false);
    else
        for (const MetricName &m : kEndToEnd)
            emit(m, true);
    std::string wall = "wall clock:";
    for (const MetricName &m : kWallClock) {
        auto it = o.metrics.find(m.name);
        if (it == o.metrics.end())
            o.fail(std::string("metric not measured: ") + m.name);
        else
            wall += std::string(" ") + m.name + " " +
                    jsonNumber(it->second.value) + " " + m.unit;
    }
    o.notes.push_back(wall);

    for (const std::string &note : o.notes)
        std::printf("%s\n", note.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                "\"metrics\": {%s}}\n",
                o.correct ? "true" : "false", (long long)o.attempted,
                (long long)o.failed, metrics.c_str());
    std::fflush(stdout);
    return o.correct ? 0 : 1;
}
