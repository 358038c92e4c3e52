#include "sim/spec_io.hpp"

#include <array>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

#include "util/logging.hpp"

namespace coolair {
namespace sim {

namespace {

// ---------------------------------------------------------------------------
// Enumerator tables (sized against the enum-count constants, so adding
// an enumerator without a spec key fails to compile).
// ---------------------------------------------------------------------------

constexpr std::array kWorkloadTable = {
    WorkloadKind::Facebook, WorkloadKind::Nutch,
    WorkloadKind::FacebookProfile, WorkloadKind::SteadyHalf};
static_assert(kWorkloadTable.size() == size_t(kWorkloadKindCount),
              "workload table out of sync with WorkloadKind");

constexpr std::array kVariantTable = {
    PlantVariant::Standard, PlantVariant::Evaporative, PlantVariant::Chiller};
static_assert(kVariantTable.size() == size_t(kPlantVariantCount),
              "variant table out of sync with PlantVariant");

constexpr std::array kStyleTable = {cooling::ActuatorStyle::Abrupt,
                                    cooling::ActuatorStyle::Smooth};
static_assert(kStyleTable.size() == size_t(cooling::kActuatorStyleCount),
              "style table out of sync with ActuatorStyle");

constexpr std::array kRunKindTable = {
    RunKind::YearWeekly, RunKind::SingleDay, RunKind::DayRange};
static_assert(kRunKindTable.size() == size_t(kRunKindCount),
              "run-kind table out of sync with RunKind");

constexpr std::array kSiteTable = {environment::NamedSite::Newark,
                                   environment::NamedSite::Chad,
                                   environment::NamedSite::Santiago,
                                   environment::NamedSite::Iceland,
                                   environment::NamedSite::Singapore};
static_assert(kSiteTable.size() == size_t(environment::kNamedSiteCount),
              "site table out of sync with NamedSite");

// ---------------------------------------------------------------------------
// Lexical helpers.
// ---------------------------------------------------------------------------

std::string
trim(const std::string &s)
{
    size_t b = s.find_first_not_of(" \t\r\n");
    if (b == std::string::npos)
        return "";
    size_t e = s.find_last_not_of(" \t\r\n");
    return s.substr(b, e - b + 1);
}

[[noreturn]] void
badValue(const std::string &key, const std::string &value)
{
    throw std::invalid_argument("spec: bad value for '" + key + "': '" +
                                value + "'");
}

[[noreturn]] void
outOfDomain(const std::string &key, const std::string &value,
            const char *domain)
{
    throw std::invalid_argument("spec: bad value for '" + key + "': '" +
                                value + "' (" + domain + ")");
}

double
parseDouble(const std::string &key, const std::string &value)
{
    if (value.empty())
        badValue(key, value);
    char *end = nullptr;
    double v = std::strtod(value.c_str(), &end);
    if (end != value.c_str() + value.size())
        badValue(key, value);
    return v;
}

/** parseDouble for a key whose domain is finite (and, with
    @p nonNegative, >= 0): nan, inf and out-of-domain values would be
    simulated as meaningless results. */
double
parseFinite(const std::string &key, const std::string &value,
            bool nonNegative = false)
{
    const double v = parseDouble(key, value);
    if (!std::isfinite(v) || (nonNegative && v < 0.0))
        outOfDomain(key, value, nonNegative ? "finite and >= 0" : "finite");
    return v;
}

int
parseInt(const std::string &key, const std::string &value)
{
    if (value.empty())
        badValue(key, value);
    char *end = nullptr;
    long v = std::strtol(value.c_str(), &end, 10);
    if (end != value.c_str() + value.size() || v < INT_MIN || v > INT_MAX)
        badValue(key, value);
    return int(v);
}

uint64_t
parseU64(const std::string &key, const std::string &value)
{
    if (value.empty() || value[0] == '-')
        badValue(key, value);
    char *end = nullptr;
    unsigned long long v = std::strtoull(value.c_str(), &end, 10);
    if (end != value.c_str() + value.size())
        badValue(key, value);
    return uint64_t(v);
}

bool
parseBool(const std::string &key, const std::string &value)
{
    if (value == "true" || value == "1")
        return true;
    if (value == "false" || value == "0")
        return false;
    badValue(key, value);
}

std::string
fmtDouble(double v)
{
    // %.17g guarantees the exact value survives the text round trip.
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

template <typename Enum, size_t N, typename KeyFn>
Enum
parseEnum(const std::array<Enum, N> &table, KeyFn key_of,
          const std::string &key, const std::string &value)
{
    for (Enum e : table)
        if (value == key_of(e))
            return e;
    badValue(key, value);
}

SystemId
parseSystem(const std::string &key, const std::string &value)
{
    for (SystemId id : allSystemIds())
        if (value == systemKey(id))
            return id;
    badValue(key, value);
}

} // anonymous namespace

// ---------------------------------------------------------------------------
// Enumerator keys (exhaustive switches; adding an enumerator without a
// key is a compile warning here and a failed static_assert above).
// ---------------------------------------------------------------------------

const char *
systemKey(SystemId id)
{
    switch (id) {
      case SystemId::Baseline:      return "baseline";
      case SystemId::Temperature:   return "temperature";
      case SystemId::Variation:     return "variation";
      case SystemId::Energy:        return "energy";
      case SystemId::AllNd:         return "allnd";
      case SystemId::AllDef:        return "alldef";
      case SystemId::VarLowRecirc:  return "varlow";
      case SystemId::VarHighRecirc: return "varhigh";
      case SystemId::EnergyDef:     return "energydef";
    }
    util::panic("systemKey: unknown system");
}

const char *
workloadKey(WorkloadKind kind)
{
    switch (kind) {
      case WorkloadKind::Facebook:        return "facebook";
      case WorkloadKind::Nutch:           return "nutch";
      case WorkloadKind::FacebookProfile: return "profile";
      case WorkloadKind::SteadyHalf:      return "steady";
    }
    util::panic("workloadKey: unknown workload kind");
}

const char *
variantKey(PlantVariant variant)
{
    switch (variant) {
      case PlantVariant::Standard:    return "standard";
      case PlantVariant::Evaporative: return "evaporative";
      case PlantVariant::Chiller:     return "chiller";
    }
    util::panic("variantKey: unknown plant variant");
}

const char *
styleKey(cooling::ActuatorStyle style)
{
    switch (style) {
      case cooling::ActuatorStyle::Abrupt: return "abrupt";
      case cooling::ActuatorStyle::Smooth: return "smooth";
    }
    util::panic("styleKey: unknown actuator style");
}

const char *
runKindKey(RunKind kind)
{
    switch (kind) {
      case RunKind::YearWeekly: return "year";
      case RunKind::SingleDay:  return "day";
      case RunKind::DayRange:   return "range";
    }
    util::panic("runKindKey: unknown run kind");
}

const char *
siteKey(environment::NamedSite site)
{
    switch (site) {
      case environment::NamedSite::Newark:    return "newark";
      case environment::NamedSite::Chad:      return "chad";
      case environment::NamedSite::Santiago:  return "santiago";
      case environment::NamedSite::Iceland:   return "iceland";
      case environment::NamedSite::Singapore: return "singapore";
    }
    util::panic("siteKey: unknown site");
}

// ---------------------------------------------------------------------------
// Formatting.
// ---------------------------------------------------------------------------

std::string
formatSpec(const ExperimentSpec &spec)
{
    std::ostringstream os;
    os << "run = " << runKindKey(spec.runKind) << "\n";

    bool named = false;
    for (environment::NamedSite site : kSiteTable) {
        if (spec.location == environment::namedLocation(site)) {
            os << "site = " << siteKey(site) << "\n";
            named = true;
            break;
        }
    }
    if (!named) {
        const environment::ClimateParams &cl = spec.location.climate;
        os << "location.name = " << spec.location.name << "\n";
        os << "location.latitude = " << fmtDouble(spec.location.latitude)
           << "\n";
        os << "location.longitude = " << fmtDouble(spec.location.longitude)
           << "\n";
        os << "climate.annual_mean = " << fmtDouble(cl.annualMeanC) << "\n";
        os << "climate.seasonal_amplitude = "
           << fmtDouble(cl.seasonalAmplitudeC) << "\n";
        os << "climate.diurnal_amplitude = "
           << fmtDouble(cl.diurnalAmplitudeC) << "\n";
        os << "climate.synoptic_amplitude = "
           << fmtDouble(cl.synopticAmplitudeC) << "\n";
        os << "climate.dew_point_depression = "
           << fmtDouble(cl.dewPointDepressionC) << "\n";
        os << "climate.dew_point_variability = "
           << fmtDouble(cl.dewPointVariabilityC) << "\n";
        os << "climate.southern_hemisphere = "
           << (cl.southernHemisphere ? "true" : "false") << "\n";
        os << "climate.seasonal_peak_day = " << fmtDouble(cl.seasonalPeakDay)
           << "\n";
        os << "climate.diurnal_peak_hour = " << fmtDouble(cl.diurnalPeakHour)
           << "\n";
    }

    os << "system = " << systemKey(spec.system) << "\n";
    os << "style = " << styleKey(spec.style) << "\n";
    os << "variant = " << variantKey(spec.variant) << "\n";
    os << "workload = " << workloadKey(spec.workload) << "\n";
    os << "max_temp = " << fmtDouble(spec.maxTempC) << "\n";
    os << "forecast_bias = " << fmtDouble(spec.forecastError.biasC) << "\n";
    os << "forecast_noise = " << fmtDouble(spec.forecastError.noiseStddevC)
       << "\n";
    os << "weeks = " << spec.weeks << "\n";
    os << "day = " << spec.day << "\n";
    os << "start_day = " << spec.startDay << "\n";
    os << "end_day = " << spec.endDay << "\n";
    os << "physics_step = " << fmtDouble(spec.physicsStepS) << "\n";
    os << "seed = " << spec.seed << "\n";
    os << "weather_cache = " << (spec.weatherCache ? "true" : "false")
       << "\n";

    // Cache and output keys are optional (defaults are omitted), so
    // spec texts from before the result store parse unchanged and the
    // normalized cache identity (sim/result_cache.hpp) stays free of
    // them.
    if (!spec.resultCache)
        os << "result_cache = false\n";
    if (!spec.cacheDirPath.empty())
        os << "cache_dir = " << spec.cacheDirPath << "\n";
    if (!spec.traceCsvPath.empty())
        os << "trace_csv = " << spec.traceCsvPath << "\n";
    if (!spec.reportJsonPath.empty())
        os << "report_json = " << spec.reportJsonPath << "\n";
    if (!spec.traceJsonPath.empty())
        os << "trace_json = " << spec.traceJsonPath << "\n";
    if (spec.bandWidthC)
        os << "band_width = " << fmtDouble(*spec.bandWidthC) << "\n";
    if (spec.bandOffsetC)
        os << "band_offset = " << fmtDouble(*spec.bandOffsetC) << "\n";
    if (spec.switchPenalty)
        os << "switch_penalty = " << fmtDouble(*spec.switchPenalty) << "\n";
    if (spec.sleepDecayPerEpoch)
        os << "sleep_decay = " << fmtDouble(*spec.sleepDecayPerEpoch) << "\n";
    if (spec.horizonSteps)
        os << "horizon = " << *spec.horizonSteps << "\n";
    // batch=0 (the scalar path) is the default and omitted; emitting the
    // key only for batched specs gives them a distinct normalized cache
    // identity, so batched and scalar results never alias in the store.
    if (spec.batch != 0)
        os << "batch = " << spec.batch << "\n";
    return os.str();
}

// ---------------------------------------------------------------------------
// Parsing.
// ---------------------------------------------------------------------------

namespace {

void
applyKeyValue(ExperimentSpec &spec, const std::string &key,
              const std::string &value)
{
    environment::ClimateParams &cl = spec.location.climate;

    if (key == "run")
        spec.runKind = parseEnum(kRunKindTable, runKindKey, key, value);
    else if (key == "site")
        spec.location = environment::namedLocation(
            parseEnum(kSiteTable, siteKey, key, value));
    else if (key == "location.name")
        spec.location.name = value;
    else if (key == "location.latitude")
        spec.location.latitude = parseFinite(key, value);
    else if (key == "location.longitude")
        spec.location.longitude = parseFinite(key, value);
    else if (key == "climate.annual_mean")
        cl.annualMeanC = parseFinite(key, value);
    else if (key == "climate.seasonal_amplitude")
        cl.seasonalAmplitudeC = parseFinite(key, value);
    else if (key == "climate.diurnal_amplitude")
        cl.diurnalAmplitudeC = parseFinite(key, value);
    else if (key == "climate.synoptic_amplitude")
        cl.synopticAmplitudeC = parseFinite(key, value);
    else if (key == "climate.dew_point_depression")
        cl.dewPointDepressionC = parseFinite(key, value);
    else if (key == "climate.dew_point_variability")
        cl.dewPointVariabilityC = parseFinite(key, value);
    else if (key == "climate.southern_hemisphere")
        cl.southernHemisphere = parseBool(key, value);
    else if (key == "climate.seasonal_peak_day")
        cl.seasonalPeakDay = parseFinite(key, value);
    else if (key == "climate.diurnal_peak_hour")
        cl.diurnalPeakHour = parseFinite(key, value);
    else if (key == "system")
        spec.system = parseSystem(key, value);
    else if (key == "style")
        spec.style = parseEnum(kStyleTable, styleKey, key, value);
    else if (key == "variant")
        spec.variant = parseEnum(kVariantTable, variantKey, key, value);
    else if (key == "workload")
        spec.workload = parseEnum(kWorkloadTable, workloadKey, key, value);
    else if (key == "max_temp")
        spec.maxTempC = parseFinite(key, value);
    else if (key == "forecast_bias")
        spec.forecastError.biasC = parseFinite(key, value);
    else if (key == "forecast_noise")
        spec.forecastError.noiseStddevC = parseFinite(key, value, true);
    else if (key == "weeks")
        spec.weeks = parseInt(key, value);
    else if (key == "day")
        spec.day = parseInt(key, value);
    else if (key == "start_day")
        spec.startDay = parseInt(key, value);
    else if (key == "end_day")
        spec.endDay = parseInt(key, value);
    else if (key == "physics_step")
        spec.physicsStepS = parseDouble(key, value);
    else if (key == "seed")
        spec.seed = parseU64(key, value);
    else if (key == "weather_cache")
        spec.weatherCache = parseBool(key, value);
    else if (key == "result_cache")
        spec.resultCache = parseBool(key, value);
    else if (key == "cache_dir")
        spec.cacheDirPath = value;
    else if (key == "trace_csv")
        spec.traceCsvPath = value;
    else if (key == "report_json")
        spec.reportJsonPath = value;
    else if (key == "trace_json")
        spec.traceJsonPath = value;
    else if (key == "band_width") {
        spec.bandWidthC = parseDouble(key, value);
        if (!std::isfinite(*spec.bandWidthC) || *spec.bandWidthC <= 0.0)
            outOfDomain(key, value, "finite and > 0");
    } else if (key == "band_offset")
        spec.bandOffsetC = parseFinite(key, value);
    else if (key == "switch_penalty")
        spec.switchPenalty = parseFinite(key, value, true);
    else if (key == "sleep_decay")
        spec.sleepDecayPerEpoch = parseFinite(key, value);
    else if (key == "horizon") {
        // Model steps per optimizer decision: at most one day of 2-min
        // steps, which also bounds the per-epoch rollout cost.
        spec.horizonSteps = parseInt(key, value);
        if (*spec.horizonSteps < 1 || *spec.horizonSteps > 720)
            outOfDomain(key, value, "integer in [1, 720]");
    } else if (key == "batch") {
        spec.batch = parseInt(key, value);
        if (spec.batch < 0 || spec.batch > 1024)
            badValue(key, value);
    } else
        throw std::invalid_argument("spec: unknown key '" + key + "'");
}

} // anonymous namespace

void
applySpecAssignment(ExperimentSpec &spec, const std::string &assignment)
{
    size_t eq = assignment.find('=');
    if (eq == std::string::npos)
        throw std::invalid_argument("spec: expected key=value, got '" +
                                    assignment + "'");
    std::string key = trim(assignment.substr(0, eq));
    std::string value = trim(assignment.substr(eq + 1));
    if (key.empty())
        throw std::invalid_argument("spec: empty key in '" + assignment +
                                    "'");
    applyKeyValue(spec, key, value);
}

void
applySpecText(ExperimentSpec &spec, const std::string &text)
{
    std::istringstream is(text);
    std::string line;
    int lineno = 0;
    while (std::getline(is, line)) {
        ++lineno;
        std::string stripped = trim(line);
        if (stripped.empty() || stripped[0] == '#')
            continue;
        try {
            applySpecAssignment(spec, stripped);
        } catch (const std::invalid_argument &e) {
            // Re-throw with the 1-based line number so a long spec file
            // points at the offending line, not just the offending key.
            std::string what = e.what();
            const char kPrefix[] = "spec: ";
            if (what.rfind(kPrefix, 0) == 0)
                what = what.substr(sizeof(kPrefix) - 1);
            throw std::invalid_argument(
                "spec line " + std::to_string(lineno) + ": " + what);
        }
    }
}

ExperimentSpec
parseSpec(const std::string &text)
{
    ExperimentSpec spec;
    spec.location = environment::namedLocation(environment::NamedSite::Newark);
    applySpecText(spec, text);
    return spec;
}

// ---------------------------------------------------------------------------
// Result serialization (the persistent result store's payload form).
// ---------------------------------------------------------------------------

namespace {

/** The double-valued Summary fields, in serialization order. */
struct SummaryField
{
    const char *key;
    double Summary::*field;
};

constexpr SummaryField kSummaryFields[] = {
    {"avg_violation", &Summary::avgViolationC},
    {"avg_worst_daily_range", &Summary::avgWorstDailyRangeC},
    {"min_worst_daily_range", &Summary::minWorstDailyRangeC},
    {"max_worst_daily_range", &Summary::maxWorstDailyRangeC},
    {"pue", &Summary::pue},
    {"it_kwh", &Summary::itKwh},
    {"cooling_kwh", &Summary::coolingKwh},
    {"humidity_violation_frac", &Summary::humidityViolationFrac},
    {"rate_violation_frac", &Summary::rateViolationFrac},
    {"avg_max_inlet", &Summary::avgMaxInletC},
};
constexpr size_t kSummaryFieldCount =
    sizeof(kSummaryFields) / sizeof(kSummaryFields[0]);

// If this fires, Summary grew or shrank: extend kSummaryFields (or the
// `days` handling), and bump kResultFormatVersion so stored entries go
// stale instead of silently missing the new field.
static_assert(sizeof(Summary) ==
                  kSummaryFieldCount * sizeof(double) + sizeof(size_t),
              "Summary changed: update kSummaryFields and bump "
              "kResultFormatVersion");

void
formatSummary(std::ostringstream &os, const char *prefix, const Summary &s)
{
    for (const SummaryField &f : kSummaryFields)
        os << prefix << "." << f.key << " = " << fmtDouble(s.*(f.field))
           << "\n";
    os << prefix << ".days = " << s.days << "\n";
}

/** Apply one `prefix.key` assignment; returns false for unknown keys. */
bool
applySummaryKey(Summary &s, const std::string &key, const std::string &field,
                const std::string &value, bool *seen, size_t &days_seen)
{
    for (size_t i = 0; i < kSummaryFieldCount; ++i) {
        if (field == kSummaryFields[i].key) {
            s.*(kSummaryFields[i].field) = parseDouble(key, value);
            seen[i] = true;
            return true;
        }
    }
    if (field == "days") {
        s.days = size_t(parseU64(key, value));
        ++days_seen;
        return true;
    }
    return false;
}

} // anonymous namespace

std::string
formatResult(const ExperimentResult &result)
{
    std::ostringstream os;
    os << "result = " << kResultFormatVersion << "\n";
    formatSummary(os, "system", result.system);
    formatSummary(os, "outside", result.outside);
    return os.str();
}

ExperimentResult
parseResult(const std::string &text)
{
    ExperimentResult result;
    bool seen_system[kSummaryFieldCount] = {};
    bool seen_outside[kSummaryFieldCount] = {};
    size_t days_system = 0, days_outside = 0;
    bool seen_version = false;

    std::istringstream is(text);
    std::string line;
    while (std::getline(is, line)) {
        std::string stripped = trim(line);
        if (stripped.empty() || stripped[0] == '#')
            continue;
        size_t eq = stripped.find('=');
        if (eq == std::string::npos)
            throw std::invalid_argument(
                "result: expected key = value, got '" + stripped + "'");
        std::string key = trim(stripped.substr(0, eq));
        std::string value = trim(stripped.substr(eq + 1));

        if (key == "result") {
            if (parseInt(key, value) != kResultFormatVersion)
                throw std::invalid_argument(
                    "result: unsupported version '" + value + "'");
            seen_version = true;
            continue;
        }
        size_t dot = key.find('.');
        std::string prefix =
            dot == std::string::npos ? std::string() : key.substr(0, dot);
        std::string field =
            dot == std::string::npos ? std::string() : key.substr(dot + 1);
        bool ok = false;
        if (prefix == "system")
            ok = applySummaryKey(result.system, key, field, value,
                                 seen_system, days_system);
        else if (prefix == "outside")
            ok = applySummaryKey(result.outside, key, field, value,
                                 seen_outside, days_outside);
        if (!ok)
            throw std::invalid_argument("result: unknown key '" + key + "'");
    }

    if (!seen_version)
        throw std::invalid_argument("result: missing version header");
    for (size_t i = 0; i < kSummaryFieldCount; ++i)
        if (!seen_system[i] || !seen_outside[i])
            throw std::invalid_argument(
                std::string("result: missing field '") +
                kSummaryFields[i].key + "'");
    if (days_system != 1 || days_outside != 1)
        throw std::invalid_argument("result: missing field 'days'");
    return result;
}

} // namespace sim
} // namespace coolair
