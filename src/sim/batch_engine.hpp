#ifndef COOLAIR_SIM_BATCH_ENGINE_HPP
#define COOLAIR_SIM_BATCH_ENGINE_HPP

/**
 * @file
 * The batched simulation engine: N whole experiments ("lanes") stepped
 * in lockstep through one instruction stream.
 *
 * Lanes must share one *shape* — every spec field except the location,
 * the seed, and the output/cache paths — so the batch shares a single
 * physics-step/sample/epoch timeline and one plant::BatchedPlant.  The
 * run lifecycle is the scalar one (sim/scenario.hpp): one RunPlan for
 * the batch, assembleRun() parts and finishRun() per lane.  The
 * per-step protocol transliterates sim::Engine::runRange exactly (same
 * sample cadence, control-epoch bookkeeping, command persistence across
 * segments); what changes is execution layout:
 *
 *  - plant physics and sensor noise run as SoA kernels across lanes
 *    (plant/parasol_batch.hpp, fast-math TUs);
 *  - engine-loop weather comes from per-lane pre-evaluated grids
 *    (environment::Climate::sampleGridInto) instead of per-step scalar
 *    sampling;
 *  - workload, controller, forecaster and metrics stay per-lane scalar
 *    objects walked at sample boundaries.
 *
 * The scalar path is the exactness oracle: batched Summary metrics
 * match it within the tolerance documented in DESIGN.md §10, not
 * bit-exactly.  A lane that throws — at construction (e.g. trace output
 * is unsupported here) or mid-run — is captured as a failed LaneResult
 * while the remaining lanes run to completion.
 */

#include <string>
#include <vector>

#include "plant/parasol_batch.hpp"
#include "sim/soa_state.hpp"

namespace coolair {
namespace sim {

/**
 * The batch-shape key of a spec: the identity text of its shape and
 * cache keys (formatSpecIdentity, sim/spec_io.hpp), with its lane keys
 * (location, seed) at neutral values and its output paths left out
 * (the key table's role column).  Specs with equal shape keys may share a
 * BatchedEngine; the sweep runner groups by this key.
 */
std::string batchShapeKey(const ExperimentSpec &spec);

/** Outcome of one lane of a batched run. */
struct LaneResult
{
    bool ok = false;
    std::string error;          ///< Set when !ok.
    ExperimentResult result;    ///< Valid when ok.
};

/** Steps a batch of same-shape experiments in lockstep. */
class BatchedEngine
{
  public:
    /**
     * Build a batch, one lane per spec.
     *
     * @param specs  Same-shape specs (see batchShapeKey); every spec
     *               must have batch > 0.
     * @param requested_width  The lane width the caller aimed for; a
     *               batch smaller than it is a ragged tail (counted in
     *               stats().raggedTailLanes).  0 means "exact".
     * @throws std::invalid_argument if the batch is empty, a spec has
     *         batch == 0, shapes differ, or the shared shape is
     *         unrunnable (RunPlan::forSpec).
     *
     * Per-lane construction failures (e.g. trace output requested, or
     * a lane location outside its domain) do NOT throw: the lane is
     * marked dead and surfaces as a failed LaneResult from run().
     */
    explicit BatchedEngine(std::vector<ExperimentSpec> specs,
                           int requested_width = 0);

    int lanes() const { return int(_lanes.size()); }

    /** Fold @p source's stats into every lane's RunReport. */
    void setReportStatsSource(ReportStatsSource source)
    {
        _reportSource = std::move(source);
    }

    /**
     * Step the shared RunPlan and return one LaneResult per lane, in
     * spec order, each finished by finishRun() (per-lane RunReports,
     * stats merged into obs::registry() when obs is enabled).  Call
     * once.
     */
    std::vector<LaneResult> run();

    /** Batch counters of this engine (valid after run()). */
    const BatchStats &stats() const { return _stats; }

  private:
    void runSegment(const RunSegment &segment);
    void runRange(int64_t start_s, int64_t end_s, bool collect);
    void sampleAll(util::SimTime now, bool collect);
    void refreshGrids(int64_t from_s, int64_t end_s);
    void failLane(int lane, const char *what);
    void addBatchStats(obs::StatsRegistry &reg) const;

    std::vector<LaneState> _lanes;
    std::unique_ptr<plant::BatchedPlant> _plant;
    plant::PlantConfig _plantConfig;
    RunPlan _plan;  ///< Shared by every lane (shape-derived).
    ReportStatsSource _reportSource;

    // Current grid chunk: lane grids all start at _gridStartS with
    // _gridPoints samples spaced _plan.stepS apart.
    int64_t _gridStartS = 0;
    int _gridPoints = 0;

    // Contiguous per-lane spans the plant kernels consume.
    std::vector<environment::WeatherSample> _outside;
    std::vector<plant::PodLoad> _loads;
    std::vector<cooling::Regime> _commands;
    std::vector<plant::SensorReadings> _sensors;

    // Per-lane change masks handed to BatchedPlant::step: set when a
    // lane's load is re-copied (workload loadVersion moved) or its
    // command reassigned (control epoch), cleared after each plant
    // step.  They only elide recomputation of values that could not
    // have changed — results are identical with the masks disabled.
    std::vector<unsigned char> _loadsDirty;
    std::vector<unsigned char> _cmdsDirty;

    BatchStats _stats;
    bool _ran = false;
};

/**
 * Run one spec through the batched engine (a single-lane batch).
 * The batched counterpart of the scalar scenario path behind
 * runUncached(); spec.batch must be positive.  @p report_source, when
 * set, folds extra stats into the lane's RunReport.
 *
 * @throws std::invalid_argument for an unrunnable spec,
 *         std::runtime_error if the lane itself fails.
 */
ExperimentResult
runBatchedExperiment(const ExperimentSpec &spec,
                     const ReportStatsSource &report_source = {});

/**
 * Run several same-shape specs as one batch, returning per-lane
 * outcomes in spec order (the sweep runner's entry point).
 */
std::vector<LaneResult>
runBatchedGroup(const std::vector<ExperimentSpec> &specs,
                int requested_width);

} // namespace sim
} // namespace coolair

#endif // COOLAIR_SIM_BATCH_ENGINE_HPP
