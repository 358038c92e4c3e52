#ifndef COOLAIR_CORE_PREDICTOR_HPP
#define COOLAIR_CORE_PREDICTOR_HPP

/**
 * @file
 * The Cooling Predictor (paper §3.2): the Cooling Model predicts only
 * one short model step ahead, so the Predictor chains it — each
 * prediction's outputs become the next prediction's inputs — to cover
 * the Optimizer's 10-minute decision horizon.
 */

#include <array>
#include <cstdint>
#include <limits>
#include <vector>

#include "cooling/regime.hpp"
#include "core/utility.hpp"
#include "model/cooling_model.hpp"
#include "plant/parasol.hpp"

namespace coolair {
namespace core {

/** A rolled-out prediction over the decision horizon. */
struct Trajectory
{
    std::vector<PredictedStep> steps;

    /** Predicted cooling energy over the horizon [kWh]. */
    double coolingEnergyKwh = 0.0;
};

/** The state the predictor starts a rollout from. */
struct PredictorState
{
    std::vector<double> podTempC;       ///< Current pod inlet temps.
    std::vector<double> podTempPrevC;   ///< One model step ago.
    double coldAbsHumidity = 8.0;
    double outsideC = 15.0;
    double outsidePrevC = 15.0;
    double outsideAbsHumidity = 8.0;
    double fanSpeedPrev = 0.0;
    double dcUtilization = 1.0;

    /** Per-pod power fractions [0..1]; empty means 0.5 everywhere. */
    std::vector<double> podPowerFraction;

    cooling::Regime currentRegime;      ///< Regime in effect right now.

    /** Build from current sensor readings and controller memory. */
    static PredictorState fromSensors(const plant::SensorReadings &sensors,
                                      const std::vector<double> &prev_temp,
                                      double prev_fan,
                                      double prev_outside,
                                      const cooling::Regime &current,
                                      const plant::PodLoad *load = nullptr);

    /**
     * fromSensors() into this object, reusing its vector storage.  Every
     * field is (re)assigned, so a stale state may be refilled freely.
     */
    void fill(const plant::SensorReadings &sensors,
              const std::vector<double> &prev_temp, double prev_fan,
              double prev_outside, const cooling::Regime &current,
              const plant::PodLoad *load = nullptr);
};

/**
 * The weather context shared by every candidate rollout of one control
 * epoch (paper §3.2 holds outside conditions at the current observation
 * over the 10-minute horizon).  Materialized once per epoch so the
 * psychrometric conversions — relative humidity of the observation and
 * the evaporative-cooler outlet temperature — are computed once instead
 * of once per evaporative candidate.
 */
struct EpochOutlook
{
    /** Outside dry-bulb per horizon step [°C]. */
    std::vector<double> outsideC;

    /** Dry-bulb one model step before the horizon starts [°C]. */
    double outsidePrevC = 15.0;

    /** Relative humidity of the current observation [%]. */
    double outsideRhPercent = 50.0;

    /** Evaporative-cooler outlet temp for the observation [°C]. */
    double evapOutletC = 15.0;

    /**
     * Fill the horizon from @p state: @p steps copies of the current
     * observation (the §3.2 hold), plus the derived psychrometrics.
     */
    void materialize(const PredictorState &state, int steps,
                     double evap_effectiveness);
};

/**
 * Scoring context for CoolingPredictor::predictScoredInto(): everything
 * needed to accumulate the §3.2 utility penalty while the rollout runs.
 */
struct ScoreContext
{
    const std::vector<int> *activePods = nullptr;
    const TemperatureBand *band = nullptr;
    const UtilityConfig *utility = nullptr;

    /** Exact switch-penalty term for this candidate (0 when its regime
        class matches the incumbent's). */
    double switchTerm = 0.0;

    /** Abandon the rollout once the candidate's score lower bound
        reaches this value (+inf disables abandonment). */
    double abandonAtScore = std::numeric_limits<double>::infinity();
};

/** One candidate's fully-evaluated score (batched scoring path). */
struct CandidateScore
{
    double penalty = 0.0;    ///< Violation units along the horizon.
    double energyKwh = 0.0;  ///< Predicted cooling energy.
    double score = 0.0;      ///< penalty + energy term + switch term.
};

/** Chains the Cooling Model over the optimizer horizon. */
class CoolingPredictor
{
  public:
    /**
     * @param model         the learned cooling model
     * @param horizon_steps model steps per rollout (5 x 2 min = 10 min)
     * @throws std::invalid_argument when @p horizon_steps <= 0
     */
    CoolingPredictor(const model::CoolingModel *model, int horizon_steps = 5);

    /** Roll out @p candidate from @p state. */
    Trajectory predict(const PredictorState &state,
                       const cooling::Regime &candidate) const;

    /**
     * Roll out @p candidate from @p state into @p traj, reusing the
     * trajectory's storage and the shared per-epoch @p outlook.  The
     * hot path: model lookups are resolved once per rollout (only two
     * transition keys ever occur — current->candidate at step 0,
     * candidate->candidate after) and no heap allocation happens once
     * the scratch buffers reach capacity.  Produces bit-identical
     * results to predict().
     */
    void predictInto(const PredictorState &state,
                     const cooling::Regime &candidate,
                     const EpochOutlook &outlook, Trajectory &traj) const;

    /**
     * predictInto() fused with the §3.2 utility: the trajectory penalty
     * is accumulated term-for-term in trajectoryPenalty()'s order while
     * the rollout advances, and the rollout is abandoned as soon as a
     * lower bound on the candidate's final score reaches
     * @p score.abandonAtScore.  Every penalty and energy increment is
     * non-negative, and floating-point accumulation of non-negative
     * terms is monotone, so the bound is safe: an abandoned candidate's
     * fully-evaluated score could never have beaten the incumbent, and
     * candidates that complete produce in @p penalty exactly what
     * trajectoryPenalty() returns for the finished @p traj.  Returns
     * false when abandoned (then @p traj's contents are unspecified).
     */
    bool predictScoredInto(const PredictorState &state,
                           const cooling::Regime &candidate,
                           const EpochOutlook &outlook,
                           const ScoreContext &score, Trajectory &traj,
                           double &penalty) const;

    /**
     * Score every candidate of @p menu against the shared @p outlook in
     * one batched pass (the lane-batched engine's scoring path).
     *
     * Algebraically this evaluates exactly what predictScoredInto()
     * does per candidate, but the linear models are collapsed once per
     * (candidate, pod) into affine recurrences
     * `T' = a*T + b*Tprev + c` (the outlook holds outside conditions
     * fixed, so every non-state feature is rollout-constant) and the
     * rollout then advances all candidates x pods through flat arrays.
     * The reassociation means scores can differ from the scalar path in
     * the last ulps — a near-tie between candidates may resolve the
     * other way, which is why the batched engine carries a tolerance
     * contract instead of bit-identity (DESIGN.md §10).  No candidate
     * is abandoned: all scores in @p out are fully evaluated, with the
     * energy and @p switch_terms already folded into .score.
     *
     * @p out is resized to the menu; @p switch_terms holds the exact
     * per-candidate switch-penalty term choose() would use.
     */
    void scoreCandidates(const PredictorState &state,
                         const cooling::RegimeMenu &menu,
                         const EpochOutlook &outlook,
                         const std::vector<int> &activePods,
                         const TemperatureBand &band,
                         const UtilityConfig &utility,
                         const std::vector<double> &switch_terms,
                         std::vector<CandidateScore> &out) const;

    /** Number of steps per rollout. */
    int horizonSteps() const { return _horizonSteps; }

    /** The model driving predictions. */
    const model::CoolingModel &model() const { return *_model; }

    /** Lifetime rollout / resolved-cache counters (plain increments on
        the thread-private predictor; harvested once per run). */
    struct PredictorStats
    {
        int64_t rollouts = 0;           ///< predictScoredInto calls
        int64_t rolloutsAbandoned = 0;  ///< early-abandoned (bound hit)
        int64_t resolveHits = 0;        ///< resolved() served from cache
        int64_t resolveMisses = 0;      ///< resolved() filled an entry
    };

    PredictorStats stats() const { return _stats; }

  private:
    const model::CoolingModel *_model;
    int _horizonSteps;

    /** Resolved per-pod temperature models + humidity model for one
        transition key, with the fallback chain already applied. */
    struct ResolvedModels
    {
        bool valid = false;
        std::vector<const model::LinearModel *> temp;
        const model::LinearModel *humidity = nullptr;

        /**
         * The same models flattened for the lane kernels: tempW holds
         * the temperature weights transposed (feature-major,
         * [feature * pods + pod]) so the exact pod-lane rollout and the
         * batched scorer's collapse kernel read contiguous lanes, and
         * humW the humidity weights.  Persistence (null) entries are
         * encoded as identity rows (weight 1 on the inside-state
         * feature) so the kernels run branch-free.
         */
        std::vector<double> tempW;
        std::array<double, model::HumidityFeatures::kCount> humW{};
    };

    /**
     * The resolved models for @p key, from a cache invalidated whenever
     * CoolingModel::revision() changes.  Resolution is a pure lookup, so
     * a cache hit returns exactly the pointers a fresh resolve would —
     * this just stops every candidate rollout from re-walking the
     * fallback chain for keys the epoch (or the whole run, absent
     * recalibration) has already seen.
     */
    const ResolvedModels &resolved(const cooling::TransitionKey &key) const;

    // Rollout lane scratch, [pod] (predictInto is logically const; one
    // predictor per controller, controllers are never shared across
    // threads).
    mutable std::vector<double> _lanePf;   ///< pod power fractions
    mutable std::vector<double> _laneOff;  ///< compressor-off temps
    mutable std::vector<double> _laneMt, _laneBd, _laneRt;  ///< penalty

    // Batched-scoring scratch, candidate-major ([cand*pods+pod],
    // [cand*horizon+step], or [cand]); sized on first use, reused per
    // epoch.
    mutable std::vector<double> _ctA0, _ctB0, _ctC0;  ///< step-0 affine
    mutable std::vector<double> _ctA1, _ctB1, _ctC1;  ///< later steps
    mutable std::vector<double> _ctT, _ctTPrev;       ///< rollout state
    mutable std::vector<double> _ctHist;              ///< temps per step
    mutable std::vector<double> _ctTmpA, _ctTmpB, _ctTmpC;  ///< blend
    mutable std::vector<double> _chAlpha0, _chBeta0;  ///< humidity, step 0
    mutable std::vector<double> _chAlpha1, _chBeta1;
    mutable std::vector<double> _chHist;              ///< humidity per step
    mutable std::vector<double> _cAvgT, _cRh;         ///< per-step RH
    mutable std::vector<double> _cPowerW;             ///< steady power
    mutable std::vector<double> _cPf;                 ///< pod power frac
    mutable std::vector<double> _cMask;               ///< active-pod mask
    mutable std::vector<double> _cMaskN;              ///< mask tiled to n
    mutable std::vector<double> _cPeA;                ///< per-lane penalty
    mutable std::vector<double> _cPen;                ///< penalty per cand
    // Per-candidate collapse inputs for the fused menu kernel.
    mutable std::vector<double> _cFan, _cOutC, _cOutPrev0, _cFanPrev0,
        _cCandFan;
    mutable std::vector<const double *> _cBankFirst, _cBankRest;

    mutable std::vector<ResolvedModels> _resolveCache;
    mutable uint64_t _resolveRevision = 0;
    mutable bool _resolveCacheReady = false;
    mutable PredictorStats _stats;
};

} // namespace core
} // namespace coolair

#endif // COOLAIR_CORE_PREDICTOR_HPP
