#ifndef COOLAIR_CORE_ROLLOUT_LANES_HPP
#define COOLAIR_CORE_ROLLOUT_LANES_HPP

/**
 * @file
 * Pod-lane kernels for the scalar oracle's candidate rollout
 * (CoolingPredictor::predictScoredInto).  Unlike predictor_kernels.hpp
 * these are *exact*: every lane performs the same IEEE operations, in
 * the same order, as the serial per-pod code they replace, so results
 * are bit-identical to CoolingModel::predictTemp chained over the
 * horizon and scored by trajectoryPenalty().  The TU is compiled with
 * COOLAIR_EXACT_KERNEL_OPTIONS (-O3, the native ISA when enabled, and
 * always -ffp-contract=off; never fast-math), which lets the pod loops
 * vectorize without fusing or reassociating anything (DESIGN.md §4).
 *
 * Temperature banks are the feature-major tables that
 * CoolingPredictor::resolved() builds: TempFeatures::kCount rows of
 * @p stride doubles, [feature * stride + pod].
 */

namespace coolair {
namespace core {
namespace lanes {

/**
 * One model step for pods [0, @p pods): out[p] = LinearModel::predict
 * of bank column p over TempFeatures::build of the pod's inputs, i.e.
 * `s = 0.0; s += w[f] * x[f]` for f in TempFeatures order.  @p T /
 * @p Tprev are the pods' current and one-step-back inside temps, @p pf
 * their power fractions; the rest of the inputs are shared by every
 * pod.  Persistence columns are not special-cased here: the caller
 * overwrites them with T afterwards.  @p out must not alias the inputs.
 */
void tempStep(int pods, int stride, const double *WT, const double *T,
              const double *Tprev, const double *pf, double out_c,
              double out_prev, double fan, double fan_prev, double dc_u,
              double *out);

/**
 * Interpolated-AC blend, exactly CoolingModel::predictTemp's
 * `t_off + (t_on - t_off) * s`: on entry @p on holds t_on, on exit the
 * blend.
 */
void blend(int pods, const double *off, double s, double *on);

/**
 * Thresholds of the per-pod temperature penalty terms.  A disabled
 * term gets thresholds it can never cross (maxTempC and
 * maxRateCPerHour = +inf, the band = [-inf, +inf]), so the kernel needs
 * no switches.
 */
struct TempPenaltyParams
{
    double maxTempC = 0.0;
    double bandLowC = 0.0;
    double bandHighC = 0.0;
    double maxRateCPerHour = 0.0;
    double stepHours = 0.0;
};

/**
 * The three per-pod temperature terms of trajectoryPenalty() for one
 * step: @p mt (max temp), @p bd (band) and @p rt (rate), each computed
 * with trajectoryPenalty()'s exact expression where its branch fires
 * and +0.0 where it does not.  @p prev is the previous step's temps
 * (the rate reference).
 */
void tempPenaltyTerms(int pods, const double *t, const double *prev,
                      const TempPenaltyParams &pp, double *mt, double *bd,
                      double *rt);

} // namespace lanes
} // namespace core
} // namespace coolair

#endif // COOLAIR_CORE_ROLLOUT_LANES_HPP
