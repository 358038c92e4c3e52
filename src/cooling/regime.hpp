#ifndef COOLAIR_COOLING_REGIME_HPP
#define COOLAIR_COOLING_REGIME_HPP

/**
 * @file
 * Cooling regimes and the regime/transition taxonomy.
 *
 * Parasol's main cooling regimes (paper §4.1): (1) free cooling with a fan
 * speed above the unit minimum; (2) air conditioning with the compressor
 * on or off; (3) neither — the datacenter is closed.  CoolAir learns one
 * thermal model per regime *and per transition between regimes* (§3.1),
 * so regimes also need a coarse, discrete key.
 */

#include <string>
#include <vector>

namespace coolair {
namespace cooling {

/** Top-level cooling mode. */
enum class Mode
{
    Closed,          ///< Neither free cooling nor AC; container sealed.
    FreeCooling,     ///< Outside air blown in; damper open.
    AirConditioning  ///< Damper closed, DX AC running.
};

/** Human-readable mode name. */
const char *modeName(Mode mode);

/**
 * A cooling regime: the target operating point the controller requests.
 * Fields not applicable to the mode are ignored (and normalized to zero
 * by normalize()).
 */
struct Regime
{
    Mode mode = Mode::Closed;

    /** Free-cooling fan speed, fraction of max [0..1]. */
    double fanSpeed = 0.0;

    /** Whether the AC compressor runs. */
    bool compressorOn = false;

    /**
     * AC compressor speed, fraction of max [0..1].  Fixed-speed units
     * (Parasol) only honor 0 or 1; variable-speed units honor any value.
     */
    double compressorSpeed = 0.0;

    /**
     * Run the adiabatic (evaporative) pre-cooler on the intake air
     * (§2's alternative for warmer climates).  Only meaningful for
     * FreeCooling, and only on plants equipped with the cooler.
     */
    bool evaporative = false;

    /** Canonical closed regime. */
    static Regime closed();

    /** Free cooling at @p speed (fraction of max fan speed). */
    static Regime freeCooling(double speed);

    /** Free cooling with the evaporative pre-cooler engaged. */
    static Regime freeCoolingEvaporative(double speed);

    /** AC with the compressor off (fan-only). */
    static Regime acFanOnly();

    /** AC with the compressor at @p speed (1.0 = full). */
    static Regime acCompressor(double speed = 1.0);

    /**
     * The regime the units are actually in, from their observed state
     * (a sensor snapshot's or the actuators'): the key the learned
     * models are indexed by.
     */
    static Regime observed(Mode mode, double fc_fan_speed, bool evap_on,
                           double compressor_speed);

    /** Zero out fields that do not apply to the mode. */
    Regime normalized() const;

    /** Short string like "fc@0.50" or "ac+comp@1.00". */
    std::string str() const;

    bool operator==(const Regime &other) const;
};

/**
 * Discrete key identifying a regime class for model learning.  Free
 * cooling speeds are bucketed so each bucket gathers enough training
 * samples.
 */
enum class RegimeClass
{
    Closed,
    FcLow,      ///< fan in (0, 0.33]
    FcMid,      ///< fan in (0.33, 0.66]
    FcHigh,     ///< fan in (0.66, 1.0]
    FcEvap,     ///< free cooling with the evaporative pre-cooler
    AcFanOnly,
    AcCompressor,
    NumClasses
};

/** Number of regime classes. */
constexpr int kNumRegimeClasses = int(RegimeClass::NumClasses);

/** Classify a regime into its model-bank class. */
RegimeClass classify(const Regime &regime);

/** Name of a regime class. */
const char *regimeClassName(RegimeClass c);

/**
 * A (from, to) regime-class pair.  CoolAir learns distinct models for
 * steady regimes (from == to) and for transitions (from != to).
 */
struct TransitionKey
{
    RegimeClass from = RegimeClass::Closed;
    RegimeClass to = RegimeClass::Closed;

    bool isSteady() const { return from == to; }

    /** Dense index in [0, kNumRegimeClasses^2). */
    int index() const
    {
        return int(from) * kNumRegimeClasses + int(to);
    }

    /** Total number of distinct keys. */
    static constexpr int
    count()
    {
        return kNumRegimeClasses * kNumRegimeClasses;
    }

    bool operator==(const TransitionKey &other) const = default;
};

/**
 * Candidate regimes a controller may choose from, given the capabilities
 * of the installed cooling units.
 */
struct RegimeMenu
{
    std::vector<Regime> candidates;

    /**
     * Parasol's menu: closed; FC at {15, 25, 50, 75, 100} % (the unit's
     * minimum speed is 15 %); AC fan-only; AC compressor full-blast.
     */
    static RegimeMenu parasol();

    /**
     * Menu for the smooth infrastructure of §5.1: FC speeds down to 1 %,
     * and variable compressor speeds {25, 50, 75, 100} %.
     */
    static RegimeMenu smooth();

    /**
     * The smooth menu extended with evaporative free-cooling candidates
     * (for plants equipped with the adiabatic pre-cooler).
     */
    static RegimeMenu smoothWithEvaporative();
};

} // namespace cooling
} // namespace coolair

#endif // COOLAIR_COOLING_REGIME_HPP
