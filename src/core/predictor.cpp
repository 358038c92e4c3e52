#include "core/predictor.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/predictor_kernels.hpp"
#include "core/rollout_lanes.hpp"
#include "physics/psychrometrics.hpp"
#include "util/logging.hpp"
#include "util/stats.hpp"

namespace coolair {
namespace core {

PredictorState
PredictorState::fromSensors(const plant::SensorReadings &sensors,
                            const std::vector<double> &prev_temp,
                            double prev_fan, double prev_outside,
                            const cooling::Regime &current,
                            const plant::PodLoad *load)
{
    PredictorState st;
    st.fill(sensors, prev_temp, prev_fan, prev_outside, current, load);
    return st;
}

void
PredictorState::fill(const plant::SensorReadings &sensors,
                     const std::vector<double> &prev_temp, double prev_fan,
                     double prev_outside, const cooling::Regime &current,
                     const plant::PodLoad *load)
{
    if (load && !load->activeServers.empty()) {
        int pods = int(load->activeServers.size());
        podPowerFraction.resize(size_t(pods));
        for (int p = 0; p < pods; ++p)
            podPowerFraction[size_t(p)] = load->podPowerFraction(p);
    } else {
        podPowerFraction.clear();
    }
    podTempC.assign(sensors.podInletC.begin(), sensors.podInletC.end());
    if (prev_temp.size() == sensors.podInletC.size())
        podTempPrevC.assign(prev_temp.begin(), prev_temp.end());
    else
        podTempPrevC.assign(sensors.podInletC.begin(),
                            sensors.podInletC.end());
    coldAbsHumidity = sensors.coldAisleAbsHumidity;
    outsideC = sensors.outsideC;
    outsidePrevC = prev_outside;
    outsideAbsHumidity = sensors.outsideAbsHumidity;
    fanSpeedPrev = prev_fan;
    dcUtilization = sensors.dcUtilization;
    currentRegime = current;
}

void
EpochOutlook::materialize(const PredictorState &state, int steps,
                          double evap_effectiveness)
{
    // Outside conditions held at the current observation across the
    // short horizon — they change far slower than that (§3.2).
    outsideC.assign(size_t(std::max(steps, 0)), state.outsideC);
    outsidePrevC = state.outsidePrevC;
    outsideRhPercent = physics::relativeHumidity(state.outsideC,
                                                 state.outsideAbsHumidity);
    evapOutletC = physics::evaporativeOutletTemp(
        state.outsideC, outsideRhPercent, evap_effectiveness);
}

CoolingPredictor::CoolingPredictor(const model::CoolingModel *model,
                                   int horizon_steps)
    : _model(model), _horizonSteps(horizon_steps)
{
    if (!model)
        util::panic("CoolingPredictor: null model");
    if (horizon_steps <= 0)
        throw std::invalid_argument(
            "CoolingPredictor: horizon must be positive");
}

const CoolingPredictor::ResolvedModels &
CoolingPredictor::resolved(const cooling::TransitionKey &key) const
{
    if (!_resolveCacheReady || _model->revision() != _resolveRevision) {
        _resolveCache.assign(size_t(cooling::TransitionKey::count()),
                             ResolvedModels{});
        _resolveRevision = _model->revision();
        _resolveCacheReady = true;
    }
    ResolvedModels &entry = _resolveCache[size_t(key.index())];
    if (!entry.valid) {
        _model->resolveTempModels(key, entry.temp);
        entry.humidity = _model->resolveHumidityModel(key);

        // Flatten for the batched scorer: transposed (feature-major)
        // weight banks, persistence encoded as an identity row so the
        // collapse kernel needs no null checks.
        constexpr size_t kT = model::TempFeatures::kCount;
        const size_t pods = entry.temp.size();
        entry.tempW.assign(pods * kT, 0.0);
        for (size_t p = 0; p < pods; ++p) {
            if (const model::LinearModel *m = entry.temp[p]) {
                const std::vector<double> &w = m->weights();
                if (w.size() != kT)
                    util::panic(
                        "CoolingPredictor: temp-model arity mismatch");
                for (size_t f = 0; f < kT; ++f)
                    entry.tempW[f * pods + p] = w[f];
            } else {
                entry.tempW[1 * pods + p] = 1.0;  // persistence: T' = T
            }
        }
        entry.humW.fill(0.0);
        if (entry.humidity) {
            const std::vector<double> &w = entry.humidity->weights();
            if (w.size() != entry.humW.size())
                util::panic(
                    "CoolingPredictor: humidity-model arity mismatch");
            std::copy(w.begin(), w.end(), entry.humW.begin());
        } else {
            entry.humW[1] = 1.0;  // persistence: h' = h
        }

        entry.valid = true;
        ++_stats.resolveMisses;
    } else {
        ++_stats.resolveHits;
    }
    return entry;
}

Trajectory
CoolingPredictor::predict(const PredictorState &state,
                          const cooling::Regime &candidate) const
{
    EpochOutlook outlook;
    outlook.materialize(state, _horizonSteps,
                        _model->config().evapEffectiveness);
    Trajectory traj;
    predictInto(state, candidate, outlook, traj);
    return traj;
}

void
CoolingPredictor::predictInto(const PredictorState &state,
                              const cooling::Regime &candidate,
                              const EpochOutlook &outlook,
                              Trajectory &traj) const
{
    ScoreContext none;  // utility == nullptr: roll out without scoring
    double penalty = 0.0;
    (void)predictScoredInto(state, candidate, outlook, none, traj, penalty);
}

void
CoolingPredictor::scoreCandidates(const PredictorState &state,
                                  const cooling::RegimeMenu &menu,
                                  const EpochOutlook &outlook,
                                  const std::vector<int> &activePods,
                                  const TemperatureBand &band,
                                  const UtilityConfig &cfg,
                                  const std::vector<double> &switch_terms,
                                  std::vector<CandidateScore> &out) const
{
    using cooling::RegimeClass;

    const int pods = int(state.podTempC.size());
    const int cands = int(menu.candidates.size());
    const int horizon = _horizonSteps;
    if (pods > _model->config().numPods)
        util::panic("CoolingPredictor: pod out of range");
    if (int(outlook.outsideC.size()) < horizon)
        util::panic("CoolingPredictor: outlook shorter than the horizon");
    if (int(switch_terms.size()) != cands)
        util::panic("scoreCandidates: switch_terms arity mismatch");
    for (int pod : activePods)
        if (pod < 0 || pod >= pods)
            util::panic("trajectoryPenalty: pod index out of range");
    _stats.rollouts += cands;

    const double step_h = _model->config().stepS / 3600.0;
    const RegimeClass cur_cls = cooling::classify(state.currentRegime);

    const size_t n = size_t(cands) * size_t(pods);
    const size_t nh = size_t(cands) * size_t(horizon);
    _ctA0.resize(n); _ctB0.resize(n); _ctC0.resize(n);
    _ctA1.resize(n); _ctB1.resize(n); _ctC1.resize(n);
    _ctT.resize(n); _ctTPrev.resize(n);
    _ctHist.resize(size_t(horizon + 1) * n);
    _ctTmpA.resize(size_t(pods));
    _ctTmpB.resize(size_t(pods));
    _ctTmpC.resize(size_t(pods));
    _chAlpha0.resize(size_t(cands)); _chBeta0.resize(size_t(cands));
    _chAlpha1.resize(size_t(cands)); _chBeta1.resize(size_t(cands));
    _chHist.resize(nh);
    _cAvgT.resize(nh); _cRh.resize(nh);
    _cPowerW.resize(size_t(cands));
    _cPf.resize(size_t(pods));
    _cMask.resize(size_t(pods));
    _cMaskN.resize(n);
    _cPeA.resize(n);
    _cPen.resize(size_t(cands));
    _cFan.resize(size_t(cands));
    _cOutC.resize(size_t(cands));
    _cOutPrev0.resize(size_t(cands));
    _cFanPrev0.resize(size_t(cands));
    _cCandFan.resize(size_t(cands));
    _cBankFirst.resize(size_t(cands));
    _cBankRest.resize(size_t(cands));
    out.assign(size_t(cands), CandidateScore{});

    for (int p = 0; p < pods; ++p)
        _cPf[size_t(p)] = p < int(state.podPowerFraction.size())
                              ? state.podPowerFraction[size_t(p)]
                              : 0.5;
    std::fill(_cMask.begin(), _cMask.end(), 0.0);
    for (int pod : activePods)
        _cMask[size_t(pod)] = 1.0;
    for (int c = 0; c < cands; ++c)
        std::copy(_cMask.begin(), _cMask.end(),
                  _cMaskN.begin() + size_t(c) * size_t(pods));

    // --- Collapse each (candidate, pod) linear model into an affine
    // recurrence T' = a*T + b*Tprev + c.  Per candidate, only two
    // resolved-model sets ever apply (current->candidate at step 0,
    // candidate->candidate after), and the outlook holds every
    // non-state feature constant, so the collapse happens once per
    // rollout instead of per pod per step.  The transposed weight banks
    // (persistence = identity rows) keep the collapse kernel branch-
    // free over contiguous pod lanes.
    const double dc_u = state.dcUtilization;
    bool any_interp = false;

    // Per-epoch memo of the resolved banks by candidate class: the menu
    // reuses a handful of transition keys, so resolve each at most once
    // per epoch instead of per candidate.
    constexpr size_t kCls = size_t(RegimeClass::NumClasses);
    std::array<const ResolvedModels *, kCls> first_by_cls{};
    std::array<const ResolvedModels *, kCls> rest_by_cls{};
    auto first_for = [&](RegimeClass cls) {
        const ResolvedModels *&e = first_by_cls[size_t(cls)];
        if (!e)
            e = &resolved({cur_cls, cls});
        return e;
    };
    auto rest_for = [&](RegimeClass cls) {
        const ResolvedModels *&e = rest_by_cls[size_t(cls)];
        if (!e)
            e = &resolved({cls, cls});
        return e;
    };

    for (int c = 0; c < cands; ++c) {
        const cooling::Regime &candidate = menu.candidates[size_t(c)];
        const double candidate_fan =
            candidate.mode == cooling::Mode::FreeCooling
                ? candidate.fanSpeed
                : 0.0;
        const bool evap = candidate.mode == cooling::Mode::FreeCooling &&
                          candidate.evaporative;
        const RegimeClass cand_cls = cooling::classify(candidate);
        const bool ac_interp =
            candidate.mode == cooling::Mode::AirConditioning &&
            candidate.compressorOn &&
            candidate.compressorSpeed < 1.0 - 1e-9;
        const double interp_s =
            util::clamp(candidate.compressorSpeed, 0.0, 1.0);
        const double fan = ac_interp ? 0.0 : candidate_fan;

        const ResolvedModels *res_first = nullptr;
        const ResolvedModels *res_rest = nullptr;
        const ResolvedModels *res_first_off = nullptr;
        const ResolvedModels *res_rest_off = nullptr;
        if (ac_interp) {
            // cand_cls is AcCompressor here, so the class memo covers
            // the "on" banks; the off banks share one key pair across
            // every interpolated candidate.
            res_first = first_for(RegimeClass::AcCompressor);
            res_rest = rest_for(RegimeClass::AcCompressor);
            res_first_off = first_for(RegimeClass::AcFanOnly);
            res_rest_off = &resolved({cand_cls, RegimeClass::AcFanOnly});
        } else {
            res_first = first_for(cand_cls);
            res_rest = rest_for(cand_cls);
        }

        _cPowerW[size_t(c)] = _model->predictCoolingPower(candidate);

        // Outside features: held at the observation (or the evaporative
        // outlet) for the whole horizon; only outsidePrevC differs at
        // step 0.
        const double out_c =
            evap ? outlook.evapOutletC : outlook.outsideC[0];
        const double out_prev0 =
            evap ? outlook.evapOutletC : outlook.outsidePrevC;

        // Collapse inputs for the fused menu kernel below.
        const size_t base = size_t(c) * size_t(pods);
        _cBankFirst[size_t(c)] = res_first->tempW.data();
        _cBankRest[size_t(c)] = res_rest->tempW.data();
        _cFan[size_t(c)] = fan;
        _cOutC[size_t(c)] = out_c;
        _cOutPrev0[size_t(c)] = out_prev0;
        _cFanPrev0[size_t(c)] = state.fanSpeedPrev;
        _cCandFan[size_t(c)] = candidate_fan;
        any_interp = any_interp || ac_interp;

        // Humidity: h' = alpha*h + beta, constant across the horizon
        // except the step-0 transition model.
        auto collapse_h = [&](const ResolvedModels *res, double &alpha,
                              double &beta) {
            const auto &w = res->humW;
            alpha = w[1] + w[4] * fan;
            beta = w[0] + (w[2] + w[5] * fan) * state.outsideAbsHumidity +
                   w[3] * fan;
        };
        double al_on, be_on;
        collapse_h(res_first, al_on, be_on);
        if (ac_interp) {
            double al_off, be_off;
            collapse_h(res_first_off, al_off, be_off);
            _chAlpha0[size_t(c)] = al_off + (al_on - al_off) * interp_s;
            _chBeta0[size_t(c)] = be_off + (be_on - be_off) * interp_s;
        } else {
            _chAlpha0[size_t(c)] = al_on;
            _chBeta0[size_t(c)] = be_on;
        }
        collapse_h(res_rest, al_on, be_on);
        if (ac_interp) {
            double al_off, be_off;
            collapse_h(res_rest_off, al_off, be_off);
            _chAlpha1[size_t(c)] = al_off + (al_on - al_off) * interp_s;
            _chBeta1[size_t(c)] = be_off + (be_on - be_off) * interp_s;
        } else {
            _chAlpha1[size_t(c)] = al_on;
            _chBeta1[size_t(c)] = be_on;
        }

        // Rollout state + history row 0 (the step-0 rate reference).
        for (int p = 0; p < pods; ++p) {
            _ctT[base + size_t(p)] = state.podTempC[size_t(p)];
            _ctTPrev[base + size_t(p)] = state.podTempPrevC[size_t(p)];
            _ctHist[base + size_t(p)] = state.podTempC[size_t(p)];
        }
    }

    // --- Fused collapse: every candidate's step-0 and steady banks in
    // two kernel calls, from the inputs staged above.
    kernels::collapseMenuN(cands, pods, _cBankFirst.data(), _cFan.data(),
                           _cOutC.data(), _cOutPrev0.data(),
                           _cFanPrev0.data(), dc_u, _cPf.data(),
                           _ctA0.data(), _ctB0.data(), _ctC0.data());
    kernels::collapseMenuN(cands, pods, _cBankRest.data(), _cFan.data(),
                           _cOutC.data(), _cOutC.data(), _cCandFan.data(),
                           dc_u, _cPf.data(), _ctA1.data(), _ctB1.data(),
                           _ctC1.data());
    if (any_interp) {
        // Interpolated AC: blend each candidate's compressor-on affine
        // map toward the compressor-off map by compressor speed (affine
        // maps blend coefficient-wise exactly like outputs).  Every
        // interpolated candidate has fan = 0 and is not evaporative, so
        // one off-bank collapse serves them all.
        auto is_interp = [&](const cooling::Regime &r) {
            return r.mode == cooling::Mode::AirConditioning &&
                   r.compressorOn && r.compressorSpeed < 1.0 - 1e-9;
        };
        const double out_c = outlook.outsideC[0];
        const ResolvedModels &off_first =
            resolved({cur_cls, RegimeClass::AcFanOnly});
        kernels::collapseAffineN(pods, off_first.tempW.data(), 0.0, out_c,
                                 outlook.outsidePrevC, state.fanSpeedPrev,
                                 dc_u, _cPf.data(), _ctTmpA.data(),
                                 _ctTmpB.data(), _ctTmpC.data());
        for (int c = 0; c < cands; ++c) {
            const cooling::Regime &candidate = menu.candidates[size_t(c)];
            if (!is_interp(candidate))
                continue;
            const size_t base = size_t(c) * size_t(pods);
            kernels::blendAffineN(
                pods, _ctTmpA.data(), _ctTmpB.data(), _ctTmpC.data(),
                util::clamp(candidate.compressorSpeed, 0.0, 1.0),
                _ctA0.data() + base, _ctB0.data() + base,
                _ctC0.data() + base);
        }
        const ResolvedModels &off_rest =
            resolved({RegimeClass::AcCompressor, RegimeClass::AcFanOnly});
        kernels::collapseAffineN(pods, off_rest.tempW.data(), 0.0, out_c,
                                 out_c, 0.0, dc_u, _cPf.data(),
                                 _ctTmpA.data(), _ctTmpB.data(),
                                 _ctTmpC.data());
        for (int c = 0; c < cands; ++c) {
            const cooling::Regime &candidate = menu.candidates[size_t(c)];
            if (!is_interp(candidate))
                continue;
            const size_t base = size_t(c) * size_t(pods);
            kernels::blendAffineN(
                pods, _ctTmpA.data(), _ctTmpB.data(), _ctTmpC.data(),
                util::clamp(candidate.compressorSpeed, 0.0, 1.0),
                _ctA1.data() + base, _ctB1.data() + base,
                _ctC1.data() + base);
        }
    }

    // --- Advance all candidates x pods in one pass, keeping the whole
    // temperature history for the penalty kernel.
    kernels::rolloutN(int64_t(n), horizon, _ctA0.data(), _ctB0.data(),
                      _ctC0.data(), _ctA1.data(), _ctB1.data(),
                      _ctC1.data(), _ctT.data(), _ctTPrev.data(),
                      _ctHist.data());

    // Per-step cold-aisle averages and the humidity recurrences, then
    // one batched RH conversion for the whole candidates x steps grid.
    if (pods > 0)
        kernels::podAvgN(cands, pods, horizon, _ctHist.data(),
                         _cAvgT.data());
    else
        std::fill(_cAvgT.begin(), _cAvgT.end(), 20.0);
    for (int c = 0; c < cands; ++c) {
        const size_t hbase = size_t(c) * size_t(horizon);
        double h = state.coldAbsHumidity;
        for (int step = 0; step < horizon; ++step) {
            h = (step == 0 ? _chAlpha0[size_t(c)] : _chAlpha1[size_t(c)]) *
                    h +
                (step == 0 ? _chBeta0[size_t(c)] : _chBeta1[size_t(c)]);
            _chHist[hbase + size_t(step)] = h;
        }
    }
    physics::relativeHumidityN(_cAvgT.data(), _chHist.data(), _cRh.data(),
                               int(nh));

    // --- Penalty pass: the temperature terms run in the kernel (each
    // max()/mask term is zero exactly when the scalar branch would not
    // fire); humidity, energy, and the AC-full surcharge finish here.
    const double w_mt = cfg.penalizeMaxTemp ? 2.0 : 0.0;   // 1 / 0.5 C
    const double w_band = cfg.penalizeBand ? 2.0 : 0.0;
    const double w_rate = cfg.penalizeRate ? 1.0 : 0.0;
    const double w_center =
        cfg.penalizeBand && cfg.centeringWeightPerC > 0.0
            ? cfg.centeringWeightPerC
            : 0.0;
    const double inv_h = 1.0 / std::max(step_h, 1e-9);
    kernels::penaltyN(cands, pods, horizon, _ctHist.data(),
                      _cMaskN.data(), w_mt, cfg.maxTempC, w_band,
                      band.lowC, band.highC, w_rate, inv_h, step_h,
                      cfg.maxRateCPerHour, w_center, band.center(),
                      _cPeA.data(), _cPen.data());

    for (int c = 0; c < cands; ++c) {
        const cooling::Regime &candidate = menu.candidates[size_t(c)];
        CandidateScore &cs = out[size_t(c)];
        const size_t hbase = size_t(c) * size_t(horizon);
        double pen = _cPen[size_t(c)];
        if (cfg.penalizeHumidity) {
            for (int step = 0; step < horizon; ++step) {
                const double rh = _cRh[hbase + size_t(step)];
                if (rh > cfg.humidityMaxPercent)
                    pen += (rh - cfg.humidityMaxPercent) / 5.0;
                else if (rh < cfg.humidityMinPercent)
                    pen += (cfg.humidityMinPercent - rh) / 5.0;
            }
        }
        cs.energyKwh =
            _cPowerW[size_t(c)] * step_h / 1000.0 * double(horizon);

        const bool ac_full =
            cfg.penalizeAcFull &&
            candidate.mode == cooling::Mode::AirConditioning &&
            candidate.compressorOn &&
            candidate.compressorSpeed >= 1.0 - 1e-9;
        if (ac_full)
            pen += double(horizon);
        cs.penalty = pen;
        cs.score = cs.penalty;
        if (cfg.energyAware)
            cs.score += cfg.energyWeightPerKwh * cs.energyKwh;
        cs.score += switch_terms[size_t(c)];
    }
}

bool
CoolingPredictor::predictScoredInto(const PredictorState &state,
                                    const cooling::Regime &candidate,
                                    const EpochOutlook &outlook,
                                    const ScoreContext &score,
                                    Trajectory &traj, double &penalty) const
{
    using cooling::RegimeClass;

    ++_stats.rollouts;

    const int pods = int(state.podTempC.size());
    if (pods > _model->config().numPods)
        util::panic("CoolingPredictor: pod out of range");
    if (int(state.podTempPrevC.size()) < pods)
        util::panic("CoolingPredictor: podTempPrevC shorter than podTempC");
    if (int(outlook.outsideC.size()) < _horizonSteps)
        util::panic("CoolingPredictor: outlook shorter than the horizon");

    const double step_h = _model->config().stepS / 3600.0;

    traj.coolingEnergyKwh = 0.0;
    traj.steps.resize(size_t(_horizonSteps));

    const double candidate_fan =
        candidate.mode == cooling::Mode::FreeCooling ? candidate.fanSpeed
                                                     : 0.0;
    // Evaporative candidates are driven by the pre-cooled intake.
    const bool evap = candidate.mode == cooling::Mode::FreeCooling &&
                      candidate.evaporative;

    // Only two transition keys appear in a rollout — (current ->
    // candidate) at step 0 and (candidate -> candidate) after — so the
    // per-pod model lookup + fallback chain runs twice per rollout
    // instead of per pod per step.  Variable-speed AC candidates
    // interpolate compressor-on and -off models, needing both sets.
    const RegimeClass cur_cls = cooling::classify(state.currentRegime);
    const RegimeClass cand_cls = cooling::classify(candidate);
    const bool ac_interp =
        candidate.mode == cooling::Mode::AirConditioning &&
        candidate.compressorOn && candidate.compressorSpeed < 1.0 - 1e-9;
    const double interp_s =
        util::clamp(candidate.compressorSpeed, 0.0, 1.0);
    // Interpolated-AC rollouts query with fan speed forced to zero,
    // matching CoolingModel::predictTemp's in_ac construction (the
    // candidate fan is already zero for AC modes).
    const double fan = ac_interp ? 0.0 : candidate_fan;

    const ResolvedModels *res_first = nullptr;
    const ResolvedModels *res_rest = nullptr;
    const ResolvedModels *res_first_off = nullptr;
    const ResolvedModels *res_rest_off = nullptr;
    if (ac_interp) {
        res_first = &resolved({cur_cls, RegimeClass::AcCompressor});
        res_rest = &resolved({cand_cls, RegimeClass::AcCompressor});
        res_first_off = &resolved({cur_cls, RegimeClass::AcFanOnly});
        res_rest_off = &resolved({cand_cls, RegimeClass::AcFanOnly});
    } else {
        res_first = &resolved({cur_cls, cand_cls});
        res_rest = &resolved({cand_cls, cand_cls});
    }
    const int stride = int(res_first->temp.size());

    // Per-rollout lane invariant: power fractions (0.5 past the end of
    // the state's list, as TempInputs defaults).
    _lanePf.resize(size_t(pods));
    for (int p = 0; p < pods; ++p)
        _lanePf[size_t(p)] = p < int(state.podPowerFraction.size())
                                 ? state.podPowerFraction[size_t(p)]
                                 : 0.5;
    _laneOff.resize(size_t(pods));

    // Cooling power depends only on the candidate, not the step.
    const double power_w = _model->predictCoolingPower(candidate);
    const double step_kwh = power_w * step_h / 1000.0;

    // Everything about the §3.2 penalty that doesn't vary per step.
    penalty = 0.0;
    const bool scoring = score.utility != nullptr;
    bool ac_full = false;
    bool can_prune = false;
    lanes::TempPenaltyParams pp;
    if (scoring) {
        const UtilityConfig &cfg = *score.utility;
        for (int pod : *score.activePods)
            if (pod < 0 || pod >= pods)
                util::panic("trajectoryPenalty: pod index out of range");
        _laneMt.resize(size_t(pods));
        _laneBd.resize(size_t(pods));
        _laneRt.resize(size_t(pods));
        // Disabled terms get thresholds they can never cross.
        constexpr double kInf = std::numeric_limits<double>::infinity();
        pp.maxTempC = cfg.penalizeMaxTemp ? cfg.maxTempC : kInf;
        pp.bandLowC = cfg.penalizeBand ? score.band->lowC : -kInf;
        pp.bandHighC = cfg.penalizeBand ? score.band->highC : kInf;
        pp.maxRateCPerHour = cfg.penalizeRate ? cfg.maxRateCPerHour : kInf;
        pp.stepHours = step_h;
        ac_full = cfg.penalizeAcFull &&
                  candidate.mode == cooling::Mode::AirConditioning &&
                  candidate.compressorOn &&
                  candidate.compressorSpeed >= 1.0 - 1e-9;
        // A negative energy weight would make the partial energy term an
        // upper bound on the final one, breaking the lower-bound
        // argument — never abandon in that configuration.
        can_prune = !cfg.energyAware || cfg.energyWeightPerKwh >= 0.0;
    }

    // Lane step for one resolved bank: the exact dot product per pod,
    // then persistence pods (no fitted model) take T itself — the
    // bank's identity row would turn a -0.0 into +0.0.
    auto lane_step = [&](const ResolvedModels &res, const double *T,
                         const double *Tprev, double out_c,
                         double out_prev, double fan_prev, double *out) {
        lanes::tempStep(pods, stride, res.tempW.data(), T, Tprev,
                        _lanePf.data(), out_c, out_prev, fan, fan_prev,
                        state.dcUtilization, out);
        for (int p = 0; p < pods; ++p)
            if (!res.temp[size_t(p)])
                out[p] = T[p];
    };

    // Lower bound on the final score, built in the optimizer's exact
    // operation order.  All remaining increments are non-negative and FP
    // accumulation of non-negative terms is monotone, so reaching the
    // abandonment threshold proves the full score would too.
    auto reachesThreshold = [&]() {
        const UtilityConfig &cfg = *score.utility;
        double bound = penalty;
        if (cfg.energyAware)
            bound += cfg.energyWeightPerKwh * traj.coolingEnergyKwh;
        bound += score.switchTerm;
        return bound >= score.abandonAtScore;
    };

    double abs_h = state.coldAbsHumidity;
    for (int step = 0; step < _horizonSteps; ++step) {
        const bool first = step == 0;
        PredictedStep &out = traj.steps[size_t(step)];
        out.stepHours = step_h;
        out.podTempC.resize(size_t(pods));

        // The rollout reads its inputs straight from the state and the
        // trajectory's earlier steps: T is the previous prediction,
        // Tprev the one before.
        const double *T = first ? state.podTempC.data()
                                : traj.steps[size_t(step - 1)].podTempC.data();
        const double *Tprev =
            first ? state.podTempPrevC.data()
                  : (step == 1
                         ? state.podTempC.data()
                         : traj.steps[size_t(step - 2)].podTempC.data());
        const double out_c =
            evap ? outlook.evapOutletC : outlook.outsideC[size_t(step)];
        const double out_prev =
            evap ? outlook.evapOutletC
                 : (first ? outlook.outsidePrevC
                          : outlook.outsideC[size_t(step - 1)]);
        const double fan_prev = first ? state.fanSpeedPrev : candidate_fan;

        double *predicted = out.podTempC.data();
        lane_step(first ? *res_first : *res_rest, T, Tprev, out_c, out_prev,
                  fan_prev, predicted);
        if (ac_interp) {
            lane_step(first ? *res_first_off : *res_rest_off, T, Tprev,
                      out_c, out_prev, fan_prev, _laneOff.data());
            lanes::blend(pods, _laneOff.data(), interp_s, predicted);
        }

        traj.coolingEnergyKwh += step_kwh;

        if (scoring) {
            // Accumulate this step's penalty terms in exactly
            // trajectoryPenalty()'s order so surviving candidates score
            // bit-identically to the unfused path.  The lanes compute
            // each pod's max-temp, band and rate term (+0.0 where the
            // branch would not fire or the switch is off); they are added
            // here one at a time, in activePods order.  Adding a +0.0
            // term the serial code skips is exact: the running penalty
            // starts at +0.0, and an IEEE sum is -0.0 only when both
            // operands are.
            lanes::tempPenaltyTerms(pods, predicted, T, pp, _laneMt.data(),
                                    _laneBd.data(), _laneRt.data());
            for (int pod : *score.activePods) {
                penalty += _laneMt[size_t(pod)];
                penalty += _laneBd[size_t(pod)];
                penalty += _laneRt[size_t(pod)];
            }
            // The step's humidity and AC-full terms are non-negative, so
            // a bound that already reaches the threshold here would reach
            // it after them too: abandon now, at the same step, and skip
            // the humidity rollout and RH conversion.
            if (can_prune && reachesThreshold()) {
                ++_stats.rolloutsAbandoned;
                return false;
            }
        }

        model::HumidityInputs hin;
        hin.insideAbs = abs_h;
        hin.outsideAbs = state.outsideAbsHumidity;
        hin.fanSpeed = fan;
        double next_abs;
        if (ac_interp) {
            double h_on = model::CoolingModel::predictHumidityWith(
                (first ? res_first : res_rest)->humidity, hin);
            double h_off = model::CoolingModel::predictHumidityWith(
                (first ? res_first_off : res_rest_off)->humidity, hin);
            next_abs = h_off + (h_on - h_off) * interp_s;
        } else {
            next_abs = model::CoolingModel::predictHumidityWith(
                (first ? res_first : res_rest)->humidity, hin);
        }

        // Relative humidity at the (predicted) cold-aisle temperature.
        double avg_t = 0.0;
        for (int p = 0; p < pods; ++p)
            avg_t += predicted[p];
        avg_t = pods > 0 ? avg_t / pods : 20.0;
        out.rhPercent = physics::relativeHumidity(avg_t, next_abs);

        if (scoring) {
            const UtilityConfig &cfg = *score.utility;
            if (cfg.penalizeHumidity) {
                if (out.rhPercent > cfg.humidityMaxPercent) {
                    penalty +=
                        (out.rhPercent - cfg.humidityMaxPercent) / 5.0;
                } else if (out.rhPercent < cfg.humidityMinPercent) {
                    penalty +=
                        (cfg.humidityMinPercent - out.rhPercent) / 5.0;
                }
            }
            if (ac_full)
                penalty += 1.0;

            if (can_prune && reachesThreshold()) {
                ++_stats.rolloutsAbandoned;
                return false;
            }
        }

        abs_h = next_abs;
    }

    if (scoring) {
        const UtilityConfig &cfg = *score.utility;
        if (cfg.penalizeBand && cfg.centeringWeightPerC > 0.0 &&
            !traj.steps.empty()) {
            const PredictedStep &last = traj.steps.back();
            double center = score.band->center();
            for (int pod : *score.activePods) {
                penalty += cfg.centeringWeightPerC *
                           std::fabs(last.podTempC[size_t(pod)] - center);
            }
        }
    }
    return true;
}

} // namespace core
} // namespace coolair
