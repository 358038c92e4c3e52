/**
 * @file
 * sweep-batched: ExperimentRunner at benchThreads() workers over 250
 * worldGrid sites, FacebookProfile workload, 26 weeks, 120 s step,
 * batch=8, no result store.  `system` alternates baseline/allnd, giving
 * two shape groups of 125 specs: 15 full batches and one 5-lane ragged
 * tail each.  This is the world-sweep path of Figures 9-11; it runs the
 * SoA kernels and the runner's shape grouping, and bypasses the scalar
 * engine, the store and serve.
 *
 * Inputs from --seed: 242 sites drawn from the 1520-site grid, plus
 * kFixedSites, which every seed includes.  The batched results of the
 * fixed sites are compared with the scalar oracle (sim.batch.err_max,
 * and the DESIGN.md §10 contract), and every pass must reproduce the
 * first pass's bytes.
 *
 * Traced run: lane fill, ragged tails, busy time and queue wait come
 * from one ExperimentRunner::run with obs stats on (the batch.* and
 * runner.* stats the library publishes).  Only the BatchedEngine
 * constructor/run() split comes from a replay of the job list on the
 * runner's pool, which the harness times itself.
 */

#include <algorithm>
#include <numeric>

#include "environment/world_grid.hpp"
#include "harness.hpp"
#include "obs/stats.hpp"
#include "sim/batch_engine.hpp"
#include "sim/runner.hpp"
#include "sim/spec_io.hpp"

namespace perfbench {

namespace sim = coolair::sim;

namespace {

constexpr size_t kSites = 250;
constexpr int kWidth = 8;
constexpr int kWeeks = 26;
const size_t kFixedSites[] = {0, 190, 380, 570, 760, 950, 1140, 1330};
constexpr size_t kPassWindow = 4;

/** The seed's spec texts: the fixed sites first, then the draw. */
std::vector<std::string>
specTexts(uint64_t seed)
{
    const std::vector<coolair::environment::Location> grid =
        coolair::environment::worldGrid();
    std::vector<size_t> order(grid.size());
    std::iota(order.begin(), order.end(), size_t(0));
    std::vector<size_t> picked(std::begin(kFixedSites), std::end(kFixedSites));
    for (size_t f : kFixedSites)
        order.erase(std::find(order.begin(), order.end(), f));
    uint64_t h = mix64(seed ^ 0x5eedull);
    for (size_t i = 0; picked.size() < kSites; ++i) {
        h = mix64(h);
        std::swap(order[i], order[i + h % (order.size() - i)]);
        picked.push_back(order[i]);
    }

    std::vector<std::string> texts;
    for (size_t i = 0; i < picked.size(); ++i) {
        sim::ExperimentSpec spec;
        spec.location = grid[picked[i]];
        spec.system = i % 2 ? sim::SystemId::AllNd : sim::SystemId::Baseline;
        spec.workload = sim::WorkloadKind::FacebookProfile;
        spec.weeks = kWeeks;
        spec.physicsStepS = 120.0;
        spec.batch = kWidth;
        texts.push_back(sim::formatSpec(spec));
    }
    return texts;
}

std::vector<sim::ExperimentSpec>
parseAll(const std::vector<std::string> &texts)
{
    std::vector<sim::ExperimentSpec> specs;
    specs.reserve(texts.size());
    for (const std::string &t : texts)
        specs.push_back(sim::parseSpec(t));
    return specs;
}

/** The job list the runner builds (spec indices grouped by shape, in
    chunks of at most the spec's batch width), for the traced replay. */
std::vector<std::vector<size_t>>
chunksOf(const std::vector<sim::ExperimentSpec> &specs)
{
    std::map<std::string, std::vector<size_t>> by_shape;
    for (size_t i = 0; i < specs.size(); ++i)
        by_shape[sim::batchShapeKey(specs[i])].push_back(i);
    std::vector<std::vector<size_t>> chunks;
    for (auto &[shape, members] : by_shape)
        for (size_t at = 0; at < members.size(); at += kWidth)
            chunks.emplace_back(
                members.begin() + at,
                members.begin() + std::min(at + kWidth, members.size()));
    return chunks;
}

/** The process-wide obs registry's entries by name. */
std::map<std::string, coolair::obs::StatsRegistry::Entry>
obsEntries()
{
    std::map<std::string, coolair::obs::StatsRegistry::Entry> out;
    for (auto &e : coolair::obs::registry().snapshot())
        out[e.name] = std::move(e);
    return out;
}

} // anonymous namespace

Outcome
runSweepBatched(const Options &opt)
{
    Outcome o;
    const std::vector<std::string> texts = specTexts(opt.seed);
    const double minutes_per_spec = kWeeks * (24.0 * 60 + 2 * 60);

    sim::RunnerConfig rc;
    rc.threads = benchThreads();
    const sim::ExperimentRunner runner(rc);

    // Setup: the learning campaign, the utilization profile and
    // parsing the sweep, repeated before the passes and once after
    // each; setup_s is the median.
    std::vector<double> setup_s, learn_s;
    auto setupOnce = [&] {
        const Clock::time_point t0 = Clock::now();
        learn_s.push_back(learningCampaign());
        facebookProfileBuild();
        sim::prewarmSharedState(parseAll(texts));
        setup_s.push_back(secondsSince(t0));
    };
    for (int r = 0; r < kSetupRepeats; ++r)
        setupOnce();

    // The reference kernel runs right before each pass, and
    // pass_ref_ms is the pass time scaled by it to the reference speed.
    std::vector<double> pass_ms, pass_ref_ms, kernel_ms, pass_rate,
        pass_specs_per_s;
    std::vector<std::string> first_bytes;
    // Traced-run accumulators.
    std::vector<double> overhead;
    double build_ms = 0.0, run_ms = 0.0;
    int passes = 0;
    SpanBuffer spans;

    // One warm-up pass (checked, not timed): the first pass pays page
    // faults and allocator growth that later passes do not.
    const sim::SweepOutcome warm = runner.run(parseAll(texts));
    for (size_t i = 0; i < texts.size(); ++i)
        first_bytes.push_back(warm.ok(i) ? sim::formatResult(warm.results[i])
                                         : "");
    o.attempted += int64_t(texts.size());
    o.failed += int64_t(warm.failures.size());
    for (const sim::ExperimentFailure &f : warm.failures)
        o.fail("spec " + std::to_string(f.index) + ": " + f.message);

    const Clock::time_point start = Clock::now();
    while (passes == 0 || secondsSince(start) < opt.seconds) {
        kernel_ms.push_back(referenceKernelMs());
        const int64_t t0 = nowNs();
        const std::vector<sim::ExperimentSpec> specs = parseAll(texts);
        const sim::SweepOutcome out = runner.run(specs);
        std::vector<std::string> bytes(specs.size());
        for (size_t i = 0; i < specs.size(); ++i)
            if (out.ok(i))
                bytes[i] = sim::formatResult(out.results[i]);
        const int64_t dur = nowNs() - t0;
        ++passes;
        o.attempted += int64_t(specs.size());
        o.failed += int64_t(out.failures.size());
        for (const sim::ExperimentFailure &f : out.failures)
            o.fail("spec " + std::to_string(f.index) + ": " + f.message);
        if (bytes != first_bytes)
            o.fail("a pass did not reproduce the first pass's results");
        const double wall = double(dur) / 1e9;
        pass_ms.push_back(wall * 1e3);
        pass_ref_ms.push_back(atReferenceSpeed(wall * 1e3, kernel_ms.back()));
        pass_rate.push_back(double(specs.size()) * minutes_per_spec / wall);
        pass_specs_per_s.push_back(double(specs.size()) / wall);
        setupOnce();
        if (!opt.trace)
            continue;
        spans.add({"runner.run", t0, dur, 0, {}});

        // Traced: the same job list, timed around each BatchedEngine
        // build and run, on the runner's own pool.
        const std::vector<std::vector<size_t>> chunks = chunksOf(specs);
        std::vector<int64_t> c_start(chunks.size()), c_built(chunks.size()),
            c_end(chunks.size());
        std::vector<std::vector<std::string>> c_bytes(chunks.size());
        const int64_t f0 = nowNs();
        const std::vector<sim::TaskFailure> failures =
            runner.forEach(chunks.size(), [&](size_t c) {
                std::vector<sim::ExperimentSpec> lane_specs;
                for (size_t i : chunks[c])
                    lane_specs.push_back(specs[i]);
                c_start[c] = nowNs();
                sim::BatchedEngine engine(std::move(lane_specs), kWidth);
                c_built[c] = nowNs();
                for (const sim::LaneResult &lane : engine.run())
                    c_bytes[c].push_back(
                        lane.ok ? sim::formatResult(lane.result) : "");
                c_end[c] = nowNs();
            });
        const int64_t fdur = nowNs() - f0;
        for (const sim::TaskFailure &f : failures)
            o.fail("traced chunk " + std::to_string(f.index) + ": " +
                   f.message);
        for (size_t c = 0; c < chunks.size(); ++c) {
            for (size_t l = 0; l < chunks[c].size(); ++l)
                if (l >= c_bytes[c].size() ||
                    c_bytes[c][l] != bytes[chunks[c][l]])
                    o.fail("traced lane differs from the runner's result");
            build_ms += double(c_built[c] - c_start[c]) / 1e6;
            run_ms += double(c_end[c] - c_built[c]) / 1e6;
            spans.add({"sim.batch " + std::to_string(c), c_start[c],
                       c_end[c] - c_start[c], 1,
                       {{"build_ms", double(c_built[c] - c_start[c]) / 1e6},
                        {"lanes", double(chunks[c].size())}}});
        }
        overhead.push_back(double(fdur) / double(dur) - 1.0);
    }

    // Traced: one more runner pass with the library's stats on (off the
    // clock), read as deltas of the process-wide registry.
    double lane_fill = 0.0, ragged = 0.0, busy_frac = 0.0,
           queue_wait_ms = 0.0;
    if (opt.trace) {
        namespace obs = coolair::obs;
        auto before = obsEntries();
        obs::setEnabled(true);
        const int64_t t0 = nowNs();
        const sim::SweepOutcome out = runner.run(parseAll(texts));
        const int64_t dur = nowNs() - t0;
        obs::setEnabled(false);
        auto after = obsEntries();
        for (size_t i = 0; i < texts.size(); ++i)
            if (!out.ok(i) ||
                sim::formatResult(out.results[i]) != first_bytes[i])
                o.fail("the stats-on pass did not reproduce the first "
                       "pass's results");
        auto counter = [&](const char *name) {
            return double(after[name].counterValue -
                          before[name].counterValue);
        };
        // Sum and count of a histogram's samples recorded in the pass.
        auto hist = [&](const char *name) {
            const auto &a = before[name].histogram;
            const auto &b = after[name].histogram;
            return std::pair<double, double>(b.weightedSum - a.weightedSum,
                                             double(b.count - a.count));
        };
        // Every lane is one spec; the batches are the runner's chunks.
        const double batches = counter("batch.batches_executed");
        lane_fill = batches > 0 ? double(texts.size()) / (batches * kWidth)
                                : 0.0;
        ragged = counter("batch.ragged_tail_lanes");
        busy_frac = hist("runner.job_seconds").first /
                    (double(runner.threads()) * double(dur) / 1e9);
        const auto [wait_s, waits] = hist("runner.queue_wait_seconds");
        queue_wait_ms = waits > 0 ? wait_s / waits * 1e3 : 0.0;
    }

    // The scalar oracle on the fixed sites (off the clock).
    const std::vector<sim::ExperimentSpec> specs = parseAll(texts);
    double err_max = 0.0;
    for (size_t i = 0; i < std::size(kFixedSites); ++i) {
        sim::ExperimentSpec scalar = specs[i];
        scalar.batch = 0;
        const std::string oracle =
            sim::formatResult(sim::runExperiment(scalar));
        bool within = false;
        err_max = std::max(err_max,
                           payloadDeviation(first_bytes[i], oracle, within));
        if (!within) {
            ++o.failed;
            o.fail("fixed site " + std::to_string(kFixedSites[i]) +
                   ": batched result outside the DESIGN.md §10 contract");
        }
    }

    std::string fixed;
    for (size_t f : kFixedSites)
        fixed += (fixed.empty() ? "" : ", ") + std::to_string(f);
    o.shape = "{\"sites\": " + std::to_string(kSites) +
              ", \"fixed_sites\": [" + fixed +
              "], \"grid_sites\": 1520, \"systems\": [\"baseline\", "
              "\"allnd\"], \"workload\": \"profile\", \"weeks\": " +
              std::to_string(kWeeks) +
              ", \"physics_step_s\": 120, \"batch\": " +
              std::to_string(kWidth) + ", \"result_store\": false}";
    o.set("setup_s", median(setup_s), "s");
    o.set("sim_min_per_s", median(pass_rate), "sim-min/s");
    // p99 per window of kPassWindow consecutive passes (about its
    // slowest pass), median over windows: one host stall moves one
    // window, not the metric.
    auto windowP99 = [](const std::vector<double> &v) {
        std::vector<double> p99;
        for (size_t at = 0; at < v.size(); at += kPassWindow)
            p99.push_back(quantile(
                std::vector<double>(v.begin() + at,
                                    v.begin() + std::min(at + kPassWindow,
                                                         v.size())),
                0.99));
        return median(p99);
    };
    o.set("latency_p50_ref_ms", median(pass_ref_ms), "ref-ms");
    o.set("latency_p99_ref_ms", windowP99(pass_ref_ms), "ref-ms");
    o.set("latency_p50_ms", median(pass_ms), "ms");
    o.set("latency_p99_ms", windowP99(pass_ms), "ms");
    o.set("host.ref_kernel_ms", median(kernel_ms), "ms");
    o.set("max_rate_rps", median(pass_specs_per_s), "req/s");
    o.set("peak_rss_mb", peakRssMb(), "MiB");
    o.notes.push_back("sweep-batched: " + std::to_string(passes) +
                      " passes x " + std::to_string(texts.size()) +
                      " specs on " + std::to_string(runner.threads()) +
                      " workers; batch err max " + std::to_string(err_max));

    if (opt.trace) {
        const double p = passes;
        o.set("model.learn_s", median(learn_s), "s");
        o.set("sim.batch.build.self_ms", build_ms / p, "ms");
        o.set("sim.batch.run.self_ms", run_ms / p, "ms");
        o.set("sim.batch.lane_fill", lane_fill, "ratio");
        o.set("sim.batch.ragged_tail_lanes", ragged, "count");
        o.set("sim.batch.err_max", err_max, "ratio");
        o.set("runner.busy_frac", busy_frac, "ratio");
        o.set("runner.queue_wait_ms", queue_wait_ms, "ms");
        o.set("trace.overhead_frac", median(overhead), "ratio");
        const std::string path = opt.workDir + "/trace-sweep-batched.json";
        if (!spans.writeChromeTrace(path))
            o.fail("cannot write " + path);
    }
    return o;
}

} // namespace perfbench
