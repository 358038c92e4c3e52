#ifndef COOLAIR_SIM_SOA_STATE_HPP
#define COOLAIR_SIM_SOA_STATE_HPP

/**
 * @file
 * Per-lane state of the batched simulation engine (sim/batch_engine.hpp).
 *
 * A "lane" is one whole experiment — spec, climate, workload, controller,
 * metrics — stepped in lockstep with its batch siblings.  The heavy
 * physics state lives as structure-of-arrays inside plant::BatchedPlant;
 * what remains here is the per-lane scalar machinery (control decisions,
 * metrics, weather grid) that the engine walks lane-by-lane at sample
 * boundaries.  Lanes are sized to the actual batch (ragged tails are
 * simply shorter batches, never padded).
 */

#include <cstdint>
#include <string>

#include "environment/climate.hpp"
#include "sim/experiment.hpp"
#include "sim/run_plan.hpp"
#include "sim/scenario.hpp"

namespace coolair {
namespace sim {

/** Scalar components and control state of one batch lane. */
struct LaneState
{
    ExperimentSpec spec;

    /** The lane's assembleRun() parts; empty for a construction-dead lane. */
    RunParts parts;

    /** Pre-evaluated weather for the current grid chunk. */
    environment::WeatherGrid grid;

    // The commanded regime lives in the engine's contiguous per-lane
    // array (BatchedPlant::step consumes it as a flat span); like the
    // scalar Engine::_command it persists across measured days.

    /** Next control-epoch boundary [s] (per lane: epochs differ). */
    int64_t nextControlS = 0;

    /**
     * workload->loadVersion() at the last pod-load copy into the
     * engine's flat loads array.  The copy (and the plant's IT-power
     * recompute) is skipped while the version is unchanged; ~0 forces
     * the first copy.
     */
    uint64_t loadVersion = ~uint64_t(0);

    /**
     * A dead lane failed (construction or a thrown step) and is masked
     * from workload/controller/metrics work; its plant lane keeps
     * stepping harmlessly so the surviving lanes stay in lockstep.
     */
    bool dead = false;
    std::string error;

    RunCounters counters;
};

/** Batch-execution counters surfaced through the StatsRegistry. */
struct BatchStats
{
    int64_t batchesExecuted = 0;   ///< BatchedEngine runs completed.
    int64_t lanesStepped = 0;      ///< Lane-steps (lanes x physics steps).
    int64_t raggedTailLanes = 0;   ///< Lanes in under-width tail batches.
    int64_t simMinutes = 0;        ///< Simulated minutes, summed over lanes.
};

} // namespace sim
} // namespace coolair

#endif // COOLAIR_SIM_SOA_STATE_HPP
