#include "sim/batch_engine.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "obs/stats.hpp"
#include "obs/trace.hpp"
#include "sim/spec_io.hpp"
#include "util/logging.hpp"

namespace coolair {
namespace sim {

namespace {

/** Weather-grid chunk cap: bounds lane grid memory on long day ranges
    (a full day at the finest 30 s step is 2880 points). */
constexpr int kMaxGridChunk = 4096;

} // namespace

std::string
batchShapeKey(const ExperimentSpec &spec)
{
    // Lane keys read as a default location and seed 0.
    static const ExperimentSpec kNeutralLane = [] {
        ExperimentSpec neutral;
        neutral.seed = 0;
        return neutral;
    }();
    ExperimentSpec shape = spec;
    copySpecKeys(shape, kNeutralLane, kLaneKeys);
    return formatSpecIdentity(shape, kShapeKeys | kLaneKeys | kCacheKeys);
}

BatchedEngine::BatchedEngine(std::vector<ExperimentSpec> specs,
                             int requested_width)
{
    if (specs.empty())
        throw std::invalid_argument(
            "BatchedEngine: batch must contain at least one spec");
    const std::string shape = batchShapeKey(specs.front());
    for (const ExperimentSpec &spec : specs) {
        if (spec.batch <= 0)
            throw std::invalid_argument(
                "BatchedEngine: every lane spec must have batch > 0");
        if (batchShapeKey(spec) != shape)
            throw std::invalid_argument(
                "BatchedEngine: lane specs differ in shape (only "
                "location, seed and output paths may vary in a batch)");
    }

    const ExperimentSpec &proto = specs.front();
    _plan = RunPlan::forSpec(proto);

    _plantConfig = plantConfigFor(proto);
    std::vector<uint64_t> seeds;
    seeds.reserve(specs.size());
    for (const ExperimentSpec &spec : specs)
        seeds.push_back(spec.seed);
    _plant = std::make_unique<plant::BatchedPlant>(_plantConfig, seeds);

    _lanes.reserve(specs.size());
    for (ExperimentSpec &spec : specs) {
        LaneState lane;
        lane.spec = std::move(spec);
        try {
            // A lane's own location and seed meet the spec domains
            // before its climate is built.
            RunPlan::forSpec(lane.spec);
            // Trace output needs the scalar engine's per-step sink; its
            // absence here is the documented fault-injection lever.
            if (!lane.spec.traceCsvPath.empty() ||
                !lane.spec.traceJsonPath.empty())
                throw std::invalid_argument(
                    "BatchedEngine: trace output is not supported on the "
                    "batched path (run with batch = 0)");
            // Lanes step on pre-evaluated grids, so the forecaster's
            // once-a-day queries are a lane's only provider traffic and
            // never hit the grid cache (0 hits in 14,976 queries over a
            // 26-week lane); its memo blocks only cost time.
            ExperimentSpec uncached = lane.spec;
            uncached.weatherCache = false;
            lane.parts = assembleRun(uncached);
            // CoolAir lanes score each epoch's candidate menu in one
            // batched pass (ulp-level score drift only; DESIGN.md §10).
            if (auto *ca = dynamic_cast<CoolAirController *>(
                    lane.parts.controller.get()))
                ca->setBatchedCandidates(true);
        } catch (const std::exception &e) {
            lane.dead = true;
            lane.error = e.what();
        }
        _lanes.push_back(std::move(lane));
    }

    const size_t n = _lanes.size();
    _outside.resize(n);
    // Dead lanes never refresh their load; seed every slot with a valid
    // arity so the plant's lockstep step always sees numPods pods.
    _loads.assign(n, plant::PodLoad::uniform(_plantConfig.numPods,
                                             _plantConfig.serversPerPod,
                                             0.5));
    _commands.assign(n, cooling::Regime::closed());
    _sensors.resize(n);
    // First plant step must consume every seeded load/command.
    _loadsDirty.assign(n, 1);
    _cmdsDirty.assign(n, 1);

    if (requested_width > 0 && int(n) < requested_width)
        _stats.raggedTailLanes = int64_t(n);
}

void
BatchedEngine::failLane(int lane, const char *what)
{
    LaneState &ln = _lanes[size_t(lane)];
    ln.dead = true;
    ln.error = what;
}

void
BatchedEngine::refreshGrids(int64_t from_s, int64_t end_s)
{
    const int64_t step = _plan.stepS;
    const int64_t remaining = (end_s - from_s + step - 1) / step;
    const int n = int(std::min<int64_t>(remaining, kMaxGridChunk));
    _gridStartS = from_s;
    _gridPoints = n;
    for (LaneState &lane : _lanes) {
        if (lane.parts.climate) {
            lane.parts.climate->sampleGridInto(util::SimTime(from_s), step,
                                               n, lane.grid);
        } else {
            // Construction-dead lane: any finite weather keeps its plant
            // lane stepping harmlessly alongside the batch.
            const size_t nz = size_t(n);
            lane.grid.startTime = util::SimTime(from_s);
            lane.grid.stepS = step;
            lane.grid.tempC.assign(nz, 20.0);
            lane.grid.rhPercent.assign(nz, 50.0);
            lane.grid.absHumidity.assign(nz, 8.0);
        }
    }
}

void
BatchedEngine::sampleAll(util::SimTime now, bool collect)
{
    _plant->readSensors(_sensors.data());
    const int n = lanes();
    for (int l = 0; l < n; ++l) {
        LaneState &lane = _lanes[size_t(l)];
        if (lane.dead)
            continue;
        try {
            plant::SensorReadings &sensors = _sensors[size_t(l)];
            sensors.time = now;

            if (now.seconds() >= lane.nextControlS) {
                workload::WorkloadStatus status =
                    lane.parts.workload->status();
                const uint64_t v = lane.parts.workload->loadVersion();
                if (v == 0 || v != lane.loadVersion) {
                    lane.parts.workload->podLoadInto(_loads[size_t(l)]);
                    lane.loadVersion = v;
                    _loadsDirty[size_t(l)] = 1;
                }
                ControlDecision decision = lane.parts.controller->control(
                    sensors, status, _loads[size_t(l)], now);
                ++lane.counters.controlEpochs;
                if (!(decision.regime == _commands[size_t(l)])) {
                    ++lane.counters.regimeTransitions;
                    _commands[size_t(l)] = decision.regime;
                    _cmdsDirty[size_t(l)] = 1;
                }
                // An unchanged decision leaves the command (and the
                // actuator, via the clean mask) untouched: setCommand
                // with an equal regime is a no-op by construction.
                if (decision.hasPlan)
                    lane.parts.workload->applyPlan(decision.plan);
                lane.nextControlS =
                    now.seconds() + lane.parts.controller->epochS();
            }

            if (!collect)
                continue;

            ++lane.counters.samples;
            if (sensors.cooling.mode == cooling::Mode::AirConditioning)
                ++lane.counters.acSamples;

            lane.parts.metrics->record(now, sensors,
                                       double(_plan.sampleIntervalS),
                                       _outside[size_t(l)].tempC);
        } catch (const std::exception &e) {
            failLane(l, e.what());
        }
    }
}

void
BatchedEngine::runRange(int64_t start_s, int64_t end_s, bool collect)
{
    if (end_s <= start_s)
        return;

    const int64_t step = _plan.stepS;
    const int n = lanes();
    refreshGrids(start_s, end_s);
    size_t gi = 0;

    for (int64_t t = start_s; t < end_s; t += step) {
        if (int(gi) == _gridPoints) {
            refreshGrids(t, end_s);
            gi = 0;
        }
        util::SimTime now(t);
        for (int l = 0; l < n; ++l)
            _outside[size_t(l)] = _lanes[size_t(l)].grid.at(gi);
        for (LaneState &lane : _lanes)
            if (!lane.dead)
                ++lane.counters.steps;
        _stats.lanesStepped += n;

        if ((t - start_s) % _plan.sampleIntervalS == 0)
            sampleAll(now, collect);

        for (int l = 0; l < n; ++l) {
            LaneState &lane = _lanes[size_t(l)];
            if (lane.dead)
                continue;
            try {
                lane.parts.workload->step(now, double(step));
                const uint64_t v = lane.parts.workload->loadVersion();
                if (v == 0 || v != lane.loadVersion) {
                    lane.parts.workload->podLoadInto(_loads[size_t(l)]);
                    lane.loadVersion = v;
                    _loadsDirty[size_t(l)] = 1;
                }
            } catch (const std::exception &e) {
                failLane(l, e.what());
            }
        }
        _plant->step(double(step), _outside.data(), _loads.data(),
                     _commands.data(), _loadsDirty.data(),
                     _cmdsDirty.data());
        std::fill(_loadsDirty.begin(), _loadsDirty.end(),
                  static_cast<unsigned char>(0));
        std::fill(_cmdsDirty.begin(), _cmdsDirty.end(),
                  static_cast<unsigned char>(0));
        ++gi;
    }
}

void
BatchedEngine::runSegment(const RunSegment &segment)
{
    obs::Span span("batch_engine.runDay");
    const util::SimTime warm(segment.warmStartS);
    for (int l = 0; l < lanes(); ++l) {
        LaneState &lane = _lanes[size_t(l)];
        if (!lane.parts.climate)
            continue;
        // Strict scalar sample here, so the start state is bit-identical
        // to the scalar engine's.
        _plant->initializeSteadyState(l, lane.parts.climate->sample(warm));
        lane.nextControlS = segment.warmStartS;
    }
    runRange(segment.warmStartS, segment.startS, /*collect=*/false);
    runRange(segment.startS, segment.endS, /*collect=*/true);
}

void
BatchedEngine::addBatchStats(obs::StatsRegistry &reg) const
{
    reg.counter("batch.batches_executed", "batched engine runs completed")
        .add(_stats.batchesExecuted);
    reg.counter("batch.lanes_stepped",
                "lane-steps executed by the batched engine")
        .add(_stats.lanesStepped);
    reg.counter("batch.ragged_tail_lanes",
                "lanes run in under-width tail batches")
        .add(_stats.raggedTailLanes);
    reg.counter("batch.sim_minutes",
                "simulated minutes produced by the batched engine")
        .add(_stats.simMinutes);
}

std::vector<LaneResult>
BatchedEngine::run()
{
    if (_ran)
        util::panic("BatchedEngine::run: may be called only once");
    _ran = true;

    const std::chrono::steady_clock::time_point t0 =
        std::chrono::steady_clock::now();
    {
        obs::Span span("batch_engine.run");
        for (const RunSegment &segment : _plan.segments)
            runSegment(segment);
    }
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();

    _stats.batchesExecuted = 1;
    for (const LaneState &lane : _lanes)
        _stats.simMinutes += lane.counters.steps * _plan.stepS / 60;

    // Batch-wide counters fold into each lane's report only; they are
    // published globally exactly once below.
    const ReportStatsSource report_source = [this](obs::StatsRegistry &reg) {
        addBatchStats(reg);
        if (_reportSource)
            _reportSource(reg);
    };

    std::vector<LaneResult> out(_lanes.size());
    for (size_t l = 0; l < _lanes.size(); ++l) {
        const LaneState &lane = _lanes[l];
        LaneResult &res = out[l];
        if (lane.dead) {
            res.error = lane.error;
            continue;
        }
        try {
            res.result = finishRun(lane.spec, _plan, lane.parts,
                                   lane.counters, wall, report_source);
            res.ok = true;
        } catch (const std::exception &e) {
            res.error = e.what();
        }
    }

    if (obs::enabled()) {
        obs::StatsRegistry batch;
        addBatchStats(batch);
        obs::registry().merge(batch);
    }
    return out;
}

ExperimentResult
runBatchedExperiment(const ExperimentSpec &spec,
                     const ReportStatsSource &report_source)
{
    if (spec.batch <= 0)
        throw std::invalid_argument(
            "runBatchedExperiment: spec.batch must be positive");
    BatchedEngine engine({spec}, /*requested_width=*/1);
    engine.setReportStatsSource(report_source);
    std::vector<LaneResult> out = engine.run();
    if (!out.front().ok)
        throw std::runtime_error(out.front().error);
    return out.front().result;
}

std::vector<LaneResult>
runBatchedGroup(const std::vector<ExperimentSpec> &specs,
                int requested_width)
{
    BatchedEngine engine(specs, requested_width);
    return engine.run();
}

} // namespace sim
} // namespace coolair
