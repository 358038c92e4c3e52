#include "cooling/regime.hpp"

#include <cmath>
#include <cstdio>

#include "util/logging.hpp"
#include "util/stats.hpp"

namespace coolair {
namespace cooling {

const char *
modeName(Mode mode)
{
    switch (mode) {
      case Mode::Closed:          return "closed";
      case Mode::FreeCooling:     return "free-cooling";
      case Mode::AirConditioning: return "air-conditioning";
    }
    util::panic("modeName: unknown mode");
}

Regime
Regime::closed()
{
    return Regime{};
}

Regime
Regime::freeCooling(double speed)
{
    Regime r;
    r.mode = Mode::FreeCooling;
    r.fanSpeed = util::clamp(speed, 0.0, 1.0);
    return r;
}

Regime
Regime::freeCoolingEvaporative(double speed)
{
    Regime r = freeCooling(speed);
    r.evaporative = true;
    return r;
}

Regime
Regime::acFanOnly()
{
    Regime r;
    r.mode = Mode::AirConditioning;
    r.compressorOn = false;
    return r;
}

Regime
Regime::acCompressor(double speed)
{
    Regime r;
    r.mode = Mode::AirConditioning;
    r.compressorOn = true;
    r.compressorSpeed = util::clamp(speed, 0.0, 1.0);
    return r;
}

Regime
Regime::observed(Mode mode, double fc_fan_speed, bool evap_on,
                 double compressor_speed)
{
    switch (mode) {
      case Mode::Closed:
        return closed();
      case Mode::FreeCooling: {
        Regime r = freeCooling(fc_fan_speed);
        r.evaporative = evap_on;
        return r;
      }
      case Mode::AirConditioning:
        return compressor_speed > 0.0 ? acCompressor(compressor_speed)
                                      : acFanOnly();
    }
    util::panic("Regime::observed: unknown mode");
}

Regime
Regime::normalized() const
{
    Regime r = *this;
    switch (r.mode) {
      case Mode::Closed:
        r.fanSpeed = 0.0;
        r.compressorOn = false;
        r.compressorSpeed = 0.0;
        r.evaporative = false;
        break;
      case Mode::FreeCooling:
        r.compressorOn = false;
        r.compressorSpeed = 0.0;
        break;
      case Mode::AirConditioning:
        r.fanSpeed = 0.0;
        r.evaporative = false;
        if (!r.compressorOn)
            r.compressorSpeed = 0.0;
        break;
    }
    return r;
}

std::string
Regime::str() const
{
    char buf[48];
    switch (mode) {
      case Mode::Closed:
        return "closed";
      case Mode::FreeCooling:
        std::snprintf(buf, sizeof(buf), evaporative ? "fc+evap@%.2f"
                                                    : "fc@%.2f",
                      fanSpeed);
        return buf;
      case Mode::AirConditioning:
        if (compressorOn) {
            std::snprintf(buf, sizeof(buf), "ac+comp@%.2f", compressorSpeed);
            return buf;
        }
        return "ac-fan";
    }
    util::panic("Regime::str: unknown mode");
}

bool
Regime::operator==(const Regime &other) const
{
    Regime a = normalized();
    Regime b = other.normalized();
    return a.mode == b.mode &&
           std::fabs(a.fanSpeed - b.fanSpeed) < 1e-9 &&
           a.compressorOn == b.compressorOn &&
           a.evaporative == b.evaporative &&
           std::fabs(a.compressorSpeed - b.compressorSpeed) < 1e-9;
}

RegimeClass
classify(const Regime &regime)
{
    switch (regime.mode) {
      case Mode::Closed:
        return RegimeClass::Closed;
      case Mode::FreeCooling:
        if (regime.evaporative)
            return RegimeClass::FcEvap;
        if (regime.fanSpeed <= 0.33)
            return RegimeClass::FcLow;
        if (regime.fanSpeed <= 0.66)
            return RegimeClass::FcMid;
        return RegimeClass::FcHigh;
      case Mode::AirConditioning:
        return regime.compressorOn ? RegimeClass::AcCompressor
                                   : RegimeClass::AcFanOnly;
    }
    util::panic("classify: unknown mode");
}

const char *
regimeClassName(RegimeClass c)
{
    switch (c) {
      case RegimeClass::Closed:       return "closed";
      case RegimeClass::FcLow:        return "fc-low";
      case RegimeClass::FcMid:        return "fc-mid";
      case RegimeClass::FcHigh:       return "fc-high";
      case RegimeClass::FcEvap:       return "fc-evap";
      case RegimeClass::AcFanOnly:    return "ac-fan";
      case RegimeClass::AcCompressor: return "ac-comp";
      default:
        util::panic("regimeClassName: unknown class");
    }
}

RegimeMenu
RegimeMenu::parasol()
{
    RegimeMenu menu;
    menu.candidates.push_back(Regime::closed());
    for (double s : {0.15, 0.25, 0.50, 0.75, 1.00})
        menu.candidates.push_back(Regime::freeCooling(s));
    menu.candidates.push_back(Regime::acFanOnly());
    menu.candidates.push_back(Regime::acCompressor(1.0));
    return menu;
}

RegimeMenu
RegimeMenu::smooth()
{
    RegimeMenu menu;
    menu.candidates.push_back(Regime::closed());
    for (double s : {0.01, 0.02, 0.05, 0.10, 0.15, 0.25, 0.40, 0.60, 0.80,
                     1.00}) {
        menu.candidates.push_back(Regime::freeCooling(s));
    }
    menu.candidates.push_back(Regime::acFanOnly());
    for (double s : {0.10, 0.25, 0.50, 0.75, 1.00})
        menu.candidates.push_back(Regime::acCompressor(s));
    return menu;
}

RegimeMenu
RegimeMenu::smoothWithEvaporative()
{
    RegimeMenu menu = smooth();
    for (double s : {0.25, 0.50, 1.00})
        menu.candidates.push_back(Regime::freeCoolingEvaporative(s));
    return menu;
}

} // namespace cooling
} // namespace coolair
