/**
 * @file
 * Exactness lock for the scalar oracle's candidate rollout.
 *
 * CoolingPredictor::predictScoredInto() evaluates the learned per-pod
 * linear models in whatever layout is fastest, but its results must be
 * bit-identical to the plain definition: CoolingModel::predictTemp /
 * predictHumidity chained over the horizon, scored by
 * trajectoryPenalty().  The reference below is built from those public
 * functions only, and every double of the trajectory, the penalty and
 * the energy is compared with memcmp — so -0.0 vs +0.0, a reassociated
 * sum or a fused multiply-add all fail.  The optimizer is checked the
 * same way against an exhaustive, unpruned selection.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "core/optimizer.hpp"
#include "core/predictor.hpp"
#include "core/utility.hpp"
#include "model/cooling_model.hpp"
#include "physics/psychrometrics.hpp"

using namespace coolair;
using namespace coolair::core;
using namespace coolair::model;
using cooling::Regime;
using cooling::RegimeClass;
using cooling::RegimeMenu;

namespace {

constexpr int kClasses = int(RegimeClass::NumClasses);

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

std::string
bitsText(double v)
{
    uint64_t u = 0;
    std::memcpy(&u, &v, sizeof(u));
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g (0x%016llx)", v,
                  (unsigned long long)u);
    return buf;
}

#define EXPECT_SAME_BITS(a, b)                                          \
    EXPECT_TRUE(sameBits((a), (b))) << #a " = " << bitsText(a) << ", " \
                                    << #b " = " << bitsText(b)

class Gen
{
  public:
    explicit Gen(uint64_t seed) : _rng(seed) {}

    double uniform(double lo, double hi)
    {
        return std::uniform_real_distribution<double>(lo, hi)(_rng);
    }
    int uniformInt(int lo, int hi)
    {
        return std::uniform_int_distribution<int>(lo, hi)(_rng);
    }
    bool chance(double p) { return uniform(0.0, 1.0) < p; }

    /** A weight, with exact zeros of either sign mixed in. */
    double weight(double scale)
    {
        if (chance(0.08))
            return chance(0.5) ? 0.0 : -0.0;
        return uniform(-scale, scale);
    }

    /** A pod temperature: mostly plausible, sometimes -0.0 or huge. */
    double temp()
    {
        if (chance(0.05))
            return -0.0;
        if (chance(0.05))
            return uniform(-1.0, 1.0) * 1e12;
        return uniform(-20.0, 60.0);
    }

  private:
    std::mt19937_64 _rng;
};

/**
 * A random model bank: each (key, pod) temperature entry and each
 * humidity entry is fitted with some probability, so rollouts mix
 * exact models, steady-state fallbacks and persistence pods.  The
 * weights keep the 11-term sums far from overflow.
 */
CoolingModel
randomModel(Gen &g, int pods)
{
    CoolingModelConfig cfg;
    cfg.numPods = pods;
    cfg.stepS = g.chance(0.5) ? 120.0 : g.uniform(30.0, 600.0);
    cfg.evapEffectiveness = g.uniform(0.5, 0.9);
    CoolingModel m(cfg);
    const double fitted = g.uniform(0.2, 0.9);
    for (int from = 0; from < kClasses; ++from) {
        for (int to = 0; to < kClasses; ++to) {
            cooling::TransitionKey key{RegimeClass(from), RegimeClass(to)};
            for (int p = 0; p < pods; ++p) {
                if (!g.chance(fitted))
                    continue;
                std::vector<double> w(TempFeatures::kCount);
                for (double &x : w)
                    x = g.weight(0.6);
                w[1] = g.uniform(0.2, 0.9);  // keep the AR part stable
                m.setTempModel(key, p, LinearModel(std::move(w)));
            }
            if (g.chance(fitted)) {
                std::vector<double> w(HumidityFeatures::kCount);
                for (double &x : w)
                    x = g.weight(0.4);
                w[1] = g.uniform(0.5, 1.0);
                m.setHumidityModel(key, LinearModel(std::move(w)));
            }
        }
    }
    if (g.chance(0.7))
        m.setAcPower(g.uniform(100.0, 400.0), g.uniform(1000.0, 4000.0));
    return m;
}

/** Menu: the smooth + evaporative menu plus random extra candidates. */
RegimeMenu
randomMenu(Gen &g)
{
    RegimeMenu menu = RegimeMenu::smoothWithEvaporative();
    const int extra = g.uniformInt(0, 4);
    for (int i = 0; i < extra; ++i) {
        switch (g.uniformInt(0, 3)) {
          case 0:
            menu.candidates.push_back(
                Regime::freeCooling(g.uniform(0.01, 1.0)));
            break;
          case 1:
            menu.candidates.push_back(
                Regime::freeCoolingEvaporative(g.uniform(0.01, 1.0)));
            break;
          case 2:
            menu.candidates.push_back(
                Regime::acCompressor(g.uniform(0.0, 1.0)));
            break;
          default:
            menu.candidates.push_back(Regime::acCompressor(1.0));
            break;
        }
    }
    return menu;
}

PredictorState
randomState(Gen &g, int state_pods, const RegimeMenu &menu)
{
    PredictorState st;
    st.podTempC.resize(size_t(state_pods));
    st.podTempPrevC.resize(size_t(state_pods));
    for (int p = 0; p < state_pods; ++p) {
        st.podTempC[size_t(p)] = g.temp();
        st.podTempPrevC[size_t(p)] =
            g.chance(0.1) ? -0.0 : st.podTempC[size_t(p)] +
                                       g.uniform(-3.0, 3.0);
    }
    st.coldAbsHumidity = g.uniform(1.0, 20.0);
    st.outsideC = g.uniform(-25.0, 45.0);
    st.outsidePrevC = st.outsideC + g.uniform(-2.0, 2.0);
    st.outsideAbsHumidity = g.uniform(1.0, 25.0);
    st.fanSpeedPrev = g.chance(0.3) ? 0.0 : g.uniform(0.0, 1.0);
    st.dcUtilization = g.uniform(0.0, 1.0);
    // Power fractions: absent (0.5 default), short, or full.
    const int pf = g.uniformInt(0, 2);
    if (pf > 0) {
        const int n = pf == 1 ? g.uniformInt(0, state_pods) : state_pods;
        for (int p = 0; p < n; ++p)
            st.podPowerFraction.push_back(g.uniform(0.0, 1.0));
    }
    st.currentRegime =
        menu.candidates[size_t(g.uniformInt(0, int(menu.candidates.size()) -
                                                   1))];
    return st;
}

/** Outlook with per-step outside temperatures that actually differ. */
EpochOutlook
randomOutlook(Gen &g, const PredictorState &st, int horizon,
              double evap_effectiveness)
{
    EpochOutlook o;
    o.materialize(st, horizon, evap_effectiveness);
    if (g.chance(0.5))
        for (double &t : o.outsideC)
            t += g.uniform(-1.5, 1.5);
    return o;
}

UtilityConfig
utilityFromMask(Gen &g, unsigned mask)
{
    UtilityConfig u;
    u.penalizeMaxTemp = (mask & 1u) != 0;
    u.penalizeBand = (mask & 2u) != 0;
    u.penalizeRate = (mask & 4u) != 0;
    u.penalizeHumidity = (mask & 8u) != 0;
    u.penalizeAcFull = (mask & 16u) != 0;
    u.energyAware = (mask & 32u) != 0;
    u.centeringWeightPerC = (mask & 64u) != 0 ? g.uniform(0.01, 0.5) : 0.0;
    // Thresholds inside the sampled temperature range so the max-temp,
    // band and rate terms fire on some pods and steps but not others.
    u.maxTempC = g.uniform(20.0, 40.0);
    u.maxRateCPerHour = g.uniform(5.0, 60.0);
    u.humidityMaxPercent = g.uniform(50.0, 90.0);
    u.humidityMinPercent = g.uniform(5.0, 30.0);
    u.energyWeightPerKwh = g.uniform(0.0, 10.0);
    u.switchPenalty = g.uniform(0.0, 2.0);
    return u;
}

TemperatureBand
randomBand(Gen &g)
{
    TemperatureBand b;
    b.lowC = g.uniform(10.0, 30.0);
    b.highC = b.lowC + g.uniform(0.5, 8.0);
    return b;
}

/** Active pods: a random subset in random order, sometimes repeated. */
std::vector<int>
randomActive(Gen &g, int state_pods)
{
    std::vector<int> active;
    for (int p = 0; p < state_pods; ++p)
        if (g.chance(0.75))
            active.push_back(p);
    for (size_t i = active.size(); i > 1; --i)
        std::swap(active[i - 1], active[size_t(g.uniformInt(0, int(i) - 1))]);
    if (!active.empty() && g.chance(0.1))
        active.push_back(active.front());
    return active;
}

/** The definition: predictTemp / predictHumidity chained step by step. */
Trajectory
referenceRollout(const CoolingModel &m, const PredictorState &st,
                 const Regime &cand, const EpochOutlook &outlook,
                 int horizon)
{
    const int pods = int(st.podTempC.size());
    const double step_h = m.config().stepS / 3600.0;
    const double cand_fan =
        cand.mode == cooling::Mode::FreeCooling ? cand.fanSpeed : 0.0;
    const bool evap =
        cand.mode == cooling::Mode::FreeCooling && cand.evaporative;
    const double power_w = m.predictCoolingPower(cand);

    Trajectory traj;
    std::vector<double> temp = st.podTempC;
    std::vector<double> prev = st.podTempPrevC;
    double abs_h = st.coldAbsHumidity;
    for (int step = 0; step < horizon; ++step) {
        const Regime &from = step == 0 ? st.currentRegime : cand;
        PredictedStep out;
        out.stepHours = step_h;
        out.podTempC.resize(size_t(pods));
        TempInputs tin;
        tin.outsideC = evap ? outlook.evapOutletC
                            : outlook.outsideC[size_t(step)];
        tin.outsidePrevC =
            evap ? outlook.evapOutletC
                 : (step == 0 ? outlook.outsidePrevC
                              : outlook.outsideC[size_t(step - 1)]);
        tin.fanSpeed = cand_fan;
        tin.fanSpeedPrev = step == 0 ? st.fanSpeedPrev : cand_fan;
        tin.dcUtilization = st.dcUtilization;
        for (int p = 0; p < pods; ++p) {
            tin.insideC = temp[size_t(p)];
            tin.insidePrevC = prev[size_t(p)];
            tin.podPowerFraction = p < int(st.podPowerFraction.size())
                                       ? st.podPowerFraction[size_t(p)]
                                       : 0.5;
            out.podTempC[size_t(p)] = m.predictTemp(from, cand, p, tin);
        }
        HumidityInputs hin;
        hin.insideAbs = abs_h;
        hin.outsideAbs = st.outsideAbsHumidity;
        hin.fanSpeed = cand_fan;
        const double next_abs = m.predictHumidity(from, cand, hin);
        double avg_t = 0.0;
        for (double t : out.podTempC)
            avg_t += t;
        avg_t = pods > 0 ? avg_t / pods : 20.0;
        out.rhPercent = physics::relativeHumidity(avg_t, next_abs);
        traj.coolingEnergyKwh += power_w * step_h / 1000.0;

        prev = temp;
        temp = out.podTempC;
        abs_h = next_abs;
        traj.steps.push_back(std::move(out));
    }
    return traj;
}

void
expectSameTrajectory(const Trajectory &got, const Trajectory &want,
                     const std::string &where)
{
    SCOPED_TRACE(where);
    ASSERT_EQ(got.steps.size(), want.steps.size());
    for (size_t s = 0; s < want.steps.size(); ++s) {
        const PredictedStep &a = got.steps[s];
        const PredictedStep &b = want.steps[s];
        ASSERT_EQ(a.podTempC.size(), b.podTempC.size()) << "step " << s;
        for (size_t p = 0; p < b.podTempC.size(); ++p)
            EXPECT_SAME_BITS(a.podTempC[p], b.podTempC[p])
                << "step " << s << " pod " << p;
        EXPECT_SAME_BITS(a.rhPercent, b.rhPercent) << "step " << s;
        EXPECT_SAME_BITS(a.stepHours, b.stepHours) << "step " << s;
    }
    EXPECT_SAME_BITS(got.coolingEnergyKwh, want.coolingEnergyKwh);
}

/**
 * Whether the fused rollout must abandon: some step's running score
 * lower bound (prefix penalty without the final-step centering pull,
 * plus the energy so far, plus the switch term) reaches the threshold.
 */
bool
referenceAbandons(const CoolingModel &m, const Trajectory &ref,
                  const PredictorState &st, const std::vector<int> &active,
                  const TemperatureBand &band, const Regime &cand,
                  const UtilityConfig &cfg, double switch_term,
                  double threshold)
{
    if (cfg.energyAware && cfg.energyWeightPerKwh < 0.0)
        return false;
    UtilityConfig no_center = cfg;
    no_center.centeringWeightPerC = 0.0;
    const double step_h = m.config().stepS / 3600.0;
    const double power_w = m.predictCoolingPower(cand);
    std::vector<PredictedStep> prefix;
    double energy = 0.0;
    for (const PredictedStep &s : ref.steps) {
        prefix.push_back(s);
        energy += power_w * step_h / 1000.0;
        double bound = trajectoryPenalty(prefix, st.podTempC, active, band,
                                         cand, no_center);
        if (cfg.energyAware)
            bound += cfg.energyWeightPerKwh * energy;
        bound += switch_term;
        if (bound >= threshold)
            return true;
    }
    return false;
}

/** One random scenario: model, menu, state, outlook and scoring. */
struct Scenario
{
    CoolingModel model;
    RegimeMenu menu;
    PredictorState state;
    EpochOutlook outlook;
    std::vector<int> active;
    TemperatureBand band;
    UtilityConfig utility;
    int horizon = 5;
};

Scenario
randomScenario(Gen &g, unsigned utility_mask)
{
    const int model_pods = g.uniformInt(1, 11);
    Scenario sc{randomModel(g, model_pods), randomMenu(g), {}, {}, {}, {},
                {}, g.uniformInt(1, 10)};
    // State pods may be fewer than model pods (a model learned for a
    // larger room than the one sensed).
    const int state_pods =
        g.chance(0.3) ? g.uniformInt(1, model_pods) : model_pods;
    sc.state = randomState(g, state_pods, sc.menu);
    sc.outlook = randomOutlook(g, sc.state, sc.horizon,
                               sc.model.config().evapEffectiveness);
    sc.active = randomActive(g, state_pods);
    sc.band = randomBand(g);
    sc.utility = utilityFromMask(g, utility_mask);
    return sc;
}

double
switchTerm(const Scenario &sc, const Regime &cand)
{
    return cooling::classify(cand) != cooling::classify(sc.state.currentRegime)
               ? sc.utility.switchPenalty
               : 0.0;
}

} // anonymous namespace

TEST(PredictorExact, RolloutMatchesChainedModelBitForBit)
{
    // Non-scoring path (predictInto) over random banks, menus and
    // states, reusing one scratch trajectory across differently-sized
    // rollouts the way the controller does.
    Gen g(0x5eed0001);
    Trajectory scratch;
    int rollouts = 0;
    for (int trial = 0; trial < 60; ++trial) {
        Scenario sc = randomScenario(g, 127u);
        CoolingPredictor pred(&sc.model, sc.horizon);
        for (const Regime &cand : sc.menu.candidates) {
            Trajectory want = referenceRollout(sc.model, sc.state, cand,
                                               sc.outlook, sc.horizon);
            pred.predictInto(sc.state, cand, sc.outlook, scratch);
            expectSameTrajectory(scratch, want,
                                 "trial " + std::to_string(trial));
            ++rollouts;
        }
        if (HasFailure())
            return;
    }
    EXPECT_GT(rollouts, 1000);
}

TEST(PredictorExact, ScoredRolloutMatchesTrajectoryPenaltyForEveryToggle)
{
    // Scoring path with abandonment disabled: trajectory, penalty and
    // energy all equal the reference for each of the 128 combinations
    // of UtilityConfig toggles (six penalty/energy switches plus the
    // centering pull).
    Gen g(0x5eed0002);
    Trajectory scratch;
    for (unsigned mask = 0; mask < 128u; ++mask) {
        for (int trial = 0; trial < 3; ++trial) {
            Scenario sc = randomScenario(g, mask);
            CoolingPredictor pred(&sc.model, sc.horizon);
            ScoreContext ctx;
            ctx.activePods = &sc.active;
            ctx.band = &sc.band;
            ctx.utility = &sc.utility;
            for (const Regime &cand : sc.menu.candidates) {
                Trajectory want = referenceRollout(
                    sc.model, sc.state, cand, sc.outlook, sc.horizon);
                const double want_pen =
                    trajectoryPenalty(want.steps, sc.state.podTempC,
                                      sc.active, sc.band, cand, sc.utility);
                ctx.switchTerm = switchTerm(sc, cand);
                double pen = -1.0;
                ASSERT_TRUE(pred.predictScoredInto(sc.state, cand,
                                                   sc.outlook, ctx, scratch,
                                                   pen));
                const std::string where =
                    "mask " + std::to_string(mask) + " trial " +
                    std::to_string(trial);
                expectSameTrajectory(scratch, want, where);
                EXPECT_SAME_BITS(pen, want_pen) << where;
            }
            if (HasFailure())
                return;
        }
    }
}

TEST(PredictorExact, AbandonmentFiresAtExactlyTheReferenceBound)
{
    // Finite thresholds around each candidate's final score: the fused
    // rollout abandons iff some step's running lower bound reaches the
    // threshold, and completed rollouts still match bit for bit.
    Gen g(0x5eed0003);
    Trajectory scratch;
    int abandoned = 0, completed = 0;
    for (int trial = 0; trial < 300; ++trial) {
        Scenario sc = randomScenario(g, unsigned(g.uniformInt(0, 127)));
        CoolingPredictor pred(&sc.model, sc.horizon);
        ScoreContext ctx;
        ctx.activePods = &sc.active;
        ctx.band = &sc.band;
        ctx.utility = &sc.utility;
        for (const Regime &cand : sc.menu.candidates) {
            Trajectory want = referenceRollout(sc.model, sc.state, cand,
                                               sc.outlook, sc.horizon);
            const double want_pen =
                trajectoryPenalty(want.steps, sc.state.podTempC, sc.active,
                                  sc.band, cand, sc.utility);
            ctx.switchTerm = switchTerm(sc, cand);
            double full = want_pen;
            if (sc.utility.energyAware)
                full += sc.utility.energyWeightPerKwh * want.coolingEnergyKwh;
            full += ctx.switchTerm;
            ctx.abandonAtScore = full * g.uniform(0.0, 1.5);
            const bool must_abandon = referenceAbandons(
                sc.model, want, sc.state, sc.active, sc.band, cand,
                sc.utility, ctx.switchTerm, ctx.abandonAtScore);
            double pen = -1.0;
            const bool done = pred.predictScoredInto(
                sc.state, cand, sc.outlook, ctx, scratch, pen);
            ASSERT_EQ(done, !must_abandon) << "trial " << trial;
            if (done) {
                expectSameTrajectory(scratch, want,
                                     "trial " + std::to_string(trial));
                EXPECT_SAME_BITS(pen, want_pen) << "trial " << trial;
                ++completed;
            } else {
                ++abandoned;
            }
        }
        if (HasFailure())
            return;
    }
    EXPECT_GT(abandoned, 100);
    EXPECT_GT(completed, 100);
}

TEST(PredictorExact, PersistencePodsKeepNegativeZero)
{
    // An empty bank makes every pod a persistence pod: T' = T exactly,
    // including the sign of zero, which an identity-row dot product
    // (0.0 + 1.0 * -0.0 = +0.0) would lose.  Interpolated-AC candidates
    // are left out: t_off + (t_on - t_off) * s itself maps -0.0 to +0.0.
    CoolingModelConfig cfg;
    cfg.numPods = 3;
    CoolingModel m(cfg);
    CoolingPredictor pred(&m, 4);
    PredictorState st;
    st.podTempC = {-0.0, 21.5, 1e12};
    st.podTempPrevC = {-0.0, -0.0, 3.0};
    st.currentRegime = Regime::closed();
    for (const Regime &cand : RegimeMenu::smoothWithEvaporative().candidates) {
        if (cand.mode == cooling::Mode::AirConditioning && cand.compressorOn &&
            cand.compressorSpeed < 1.0 - 1e-9)
            continue;
        Trajectory traj = pred.predict(st, cand);
        ASSERT_EQ(traj.steps.size(), 4u);
        for (const PredictedStep &s : traj.steps) {
            ASSERT_EQ(s.podTempC.size(), 3u);
            for (size_t p = 0; p < 3; ++p)
                EXPECT_SAME_BITS(s.podTempC[p], st.podTempC[p]);
        }
    }
}

namespace {

/** choose()'s selection rules over fully-evaluated candidates. */
OptimizerDecision
exhaustiveChoice(const Scenario &sc)
{
    OptimizerDecision best;
    bool have_best = false;
    for (const Regime &cand : sc.menu.candidates) {
        Trajectory t = referenceRollout(sc.model, sc.state, cand,
                                        sc.outlook, sc.horizon);
        const double pen = trajectoryPenalty(t.steps, sc.state.podTempC,
                                             sc.active, sc.band, cand,
                                             sc.utility);
        double score = pen;
        if (sc.utility.energyAware)
            score += sc.utility.energyWeightPerKwh * t.coolingEnergyKwh;
        score += switchTerm(sc, cand);
        bool better;
        if (!have_best) {
            better = true;
        } else if (score < best.score - 1e-9) {
            better = true;
        } else if (score < best.score + 1e-9) {
            const bool ci = cand == sc.state.currentRegime;
            const bool bi = best.regime == sc.state.currentRegime;
            better = (ci && !bi) ||
                     (ci == bi && t.coolingEnergyKwh < best.energyKwh - 1e-12);
        } else {
            better = false;
        }
        if (better) {
            best.regime = cand;
            best.penalty = pen;
            best.energyKwh = t.coolingEnergyKwh;
            best.score = score;
            have_best = true;
        }
    }
    return best;
}

} // anonymous namespace

TEST(PredictorExact, PrunedChoiceEqualsExhaustiveSelection)
{
    // The optimizer abandons hopeless rollouts; the decision and its
    // diagnostics must equal an unpruned, fully-evaluated selection
    // under the same tie rules.
    Gen g(0x5eed0004);
    for (int trial = 0; trial < 400; ++trial) {
        Scenario sc = randomScenario(g, unsigned(g.uniformInt(0, 127)));
        CoolingPredictor pred(&sc.model, sc.horizon);
        CoolingOptimizer opt(sc.menu, sc.utility);
        Trajectory scratch;
        const OptimizerDecision got = opt.choose(
            pred, sc.state, sc.outlook, sc.active, sc.band, scratch);
        const OptimizerDecision want = exhaustiveChoice(sc);
        ASSERT_TRUE(got.regime == want.regime) << "trial " << trial;
        EXPECT_SAME_BITS(got.penalty, want.penalty) << "trial " << trial;
        EXPECT_SAME_BITS(got.energyKwh, want.energyKwh) << "trial " << trial;
        EXPECT_SAME_BITS(got.score, want.score) << "trial " << trial;
        if (HasFailure())
            return;
    }
}
