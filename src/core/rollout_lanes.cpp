/**
 * @file
 * Exact pod-lane kernels for the scalar oracle's rollout.  This TU is
 * compiled with COOLAIR_EXACT_KERNEL_OPTIONS (see the top-level
 * CMakeLists.txt): -O3 and the native ISA so the pod loops vectorize,
 * but -ffp-contract=off and no fast-math, so each lane computes exactly
 * what the serial code would.  Keep it that way: no reassociation (each
 * sum in its source order), no fused multiply-add, and conditionals as
 * selects between values computed the serial way.
 */

#include "core/rollout_lanes.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

namespace coolair {
namespace core {
namespace lanes {

void
tempStep(int pods, int stride, const double *__restrict WT,
         const double *__restrict T, const double *__restrict Tprev,
         const double *__restrict pf, double out_c, double out_prev,
         double fan, double fan_prev, double dc_u, double *__restrict out)
{
    // TempFeatures order: {1, insideC, insidePrevC, outsideC,
    // outsidePrevC, fan, fanPrev, dcUtil, fan*insideC, fan*outsideC,
    // podPowerFraction}; the sum runs in that order from 0.0, exactly
    // like LinearModel::predict.
    const int64_t S = stride;
    const double fan_out = fan * out_c;
    const double *w0 = WT;
    const double *w1 = WT + S;
    const double *w2 = WT + 2 * S;
    const double *w3 = WT + 3 * S;
    const double *w4 = WT + 4 * S;
    const double *w5 = WT + 5 * S;
    const double *w6 = WT + 6 * S;
    const double *w7 = WT + 7 * S;
    const double *w8 = WT + 8 * S;
    const double *w9 = WT + 9 * S;
    const double *w10 = WT + 10 * S;
    for (int64_t p = 0; p < pods; ++p) {
        double s = 0.0;
        s += w0[p] * 1.0;
        s += w1[p] * T[p];
        s += w2[p] * Tprev[p];
        s += w3[p] * out_c;
        s += w4[p] * out_prev;
        s += w5[p] * fan;
        s += w6[p] * fan_prev;
        s += w7[p] * dc_u;
        s += w8[p] * (fan * T[p]);
        s += w9[p] * fan_out;
        s += w10[p] * pf[p];
        out[p] = s;
    }
}

void
blend(int pods, const double *__restrict off, double s,
      double *__restrict on)
{
    for (int64_t p = 0; p < pods; ++p)
        on[p] = off[p] + (on[p] - off[p]) * s;
}

void
tempPenaltyTerms(int pods, const double *__restrict t,
                 const double *__restrict prev,
                 const TempPenaltyParams &pp, double *__restrict mt,
                 double *__restrict bd, double *__restrict rt)
{
    const double max_t = pp.maxTempC;
    const double lo = pp.bandLowC;
    const double hi = pp.bandHighC;
    const double max_rate = pp.maxRateCPerHour;
    const double step_h = pp.stepHours;
    const double rate_div = std::max(step_h, 1e-9);
    for (int64_t p = 0; p < pods; ++p) {
        const double tp = t[p];
        // Each value is computed unconditionally (so the loop stays
        // branch-free) and kept only where trajectoryPenalty()'s branch
        // would fire.
        const double over = (tp - max_t) / 0.5;
        const double m = tp > max_t ? over : 0.0;

        const double below = lo - tp;
        const double above = tp - hi;
        const double b = (tp < lo ? below : (tp > hi ? above : 0.0)) / 0.5;

        const double rate = std::fabs(tp - prev[p]) / rate_div;
        const double excess = (rate - max_rate) * step_h;
        const double r = rate > max_rate ? excess : 0.0;

        mt[p] = m;
        bd[p] = b;
        rt[p] = r;
    }
}

} // namespace lanes
} // namespace core
} // namespace coolair
