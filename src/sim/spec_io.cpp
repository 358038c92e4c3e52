#include "sim/spec_io.hpp"

#include <algorithm>
#include <array>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <type_traits>

#include "util/sim_time.hpp"

namespace coolair {
namespace sim {

namespace {

// ---------------------------------------------------------------------------
// Lexical helpers and value text, one overload per field type.  Doubles
// print as %.17g, so the text round trip is exact.
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

void
parseInto(double &out, const std::string &key, const std::string &value)
{
    char *end = nullptr;
    out = std::strtod(value.c_str(), &end);
    if (value.empty() || end != value.c_str() + value.size())
        badValue(key, value);
}

void
parseInto(int &out, const std::string &key, const std::string &value)
{
    char *end = nullptr;
    const long v = std::strtol(value.c_str(), &end, 10);
    if (value.empty() || end != value.c_str() + value.size() ||
        v < INT_MIN || v > INT_MAX)
        badValue(key, value);
    out = int(v);
}

void
parseInto(uint64_t &out, const std::string &key, const std::string &value)
{
    char *end = nullptr;
    errno = 0;
    out = std::strtoull(value.c_str(), &end, 10);
    // strtoull negates a '-' and saturates on overflow instead of failing.
    if (value.empty() || value[0] == '-' ||
        end != value.c_str() + value.size() || errno == ERANGE)
        badValue(key, value);
}

void
parseInto(bool &out, const std::string &key, const std::string &value)
{
    out = value == "true" || value == "1";
    if (!out && value != "false" && value != "0")
        badValue(key, value);
}

void
parseInto(std::string &out, const std::string &, const std::string &value)
{
    out = value;
}

template <typename T>
void
parseInto(std::optional<T> &out, const std::string &key,
          const std::string &value)
{
    parseInto(out.emplace(), key, value);
}

std::string
textOf(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string textOf(int v) { return std::to_string(v); }
std::string textOf(uint64_t v) { return std::to_string(v); }
std::string textOf(bool v) { return v ? "true" : "false"; }
std::string textOf(const std::string &v) { return v; }
template <typename T>
std::string textOf(const std::optional<T> &v) { return v ? textOf(*v) : ""; }

/** The value a domain checks: doubles and ints, when set. */
std::optional<double> numberOf(double v) { return v; }
std::optional<double> numberOf(int v) { return v; }
template <typename T>
std::optional<double> numberOf(const std::optional<T> &v)
{ return v ? numberOf(*v) : std::nullopt; }
template <typename T>
std::optional<double> numberOf(const T &) { return std::nullopt; }

/** What a field accepts beyond its domain, for --list-keys. */
template <typename T>
const char *acceptsOf(const T *) { return ""; }
const char *acceptsOf(const bool *) { return "true|false"; }
const char *acceptsOf(const std::string *) { return "text"; }
const char *acceptsOf(const uint64_t *) { return "an unsigned 64-bit integer"; }

/** A number for a message (not a round trip). */
std::string
fmtShort(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%g", v);
    return buf;
}

// Spec text of each enumerator, indexed by it (every enum here is
// numbered from 0); a missing or extra name fails to compile.
constexpr const char *kSystemKeys[] = {
    "baseline", "temperature", "variation", "energy",   "allnd",
    "alldef",   "varlow",      "varhigh",   "energydef"};
constexpr const char *kWorkloadKeys[] = {"facebook", "nutch", "profile",
                                         "steady"};
constexpr const char *kVariantKeys[] = {"standard", "evaporative", "chiller"};
constexpr const char *kStyleKeys[] = {"abrupt", "smooth"};
constexpr const char *kRunKindKeys[] = {"year", "day", "range"};
constexpr const char *kSiteKeys[] = {"newark", "chad", "santiago", "iceland",
                                     "singapore"};
static_assert(std::size(kSystemKeys) == kSystemIdCount);
static_assert(std::size(kWorkloadKeys) == kWorkloadKindCount);
static_assert(std::size(kVariantKeys) == kPlantVariantCount);
static_assert(std::size(kStyleKeys) == cooling::kActuatorStyleCount);
static_assert(std::size(kRunKindKeys) == kRunKindCount);
static_assert(std::size(kSiteKeys) == environment::kNamedSiteCount);

} // anonymous namespace

const char *
systemKey(SystemId id)
{
    return kSystemKeys[int(id)];
}

const char *
workloadKey(WorkloadKind kind)
{
    return kWorkloadKeys[int(kind)];
}

const char *
variantKey(PlantVariant variant)
{
    return kVariantKeys[int(variant)];
}

const char *
styleKey(cooling::ActuatorStyle style)
{
    return kStyleKeys[int(style)];
}

const char *
runKindKey(RunKind kind)
{
    return kRunKindKeys[int(kind)];
}

const char *
siteKey(environment::NamedSite site)
{
    return kSiteKeys[int(site)];
}

// ---------------------------------------------------------------------------
// The key table: one row per spec key.
// ---------------------------------------------------------------------------

namespace {

/** How a key's value is parsed, written, checked and copied. */
struct Codec
{
    void (*parse)(ExperimentSpec &, const std::string &key,
                  const std::string &value);
    std::string (*text)(const ExperimentSpec &);
    std::optional<double> (*number)(const ExperimentSpec &);
    bool (*same)(const ExperimentSpec &, const ExperimentSpec &);
    void (*copy)(ExperimentSpec &to, const ExperimentSpec &from);
    std::string (*accepts)();
};

/** Field accessors only read, so calling one on a const spec is safe. */
ExperimentSpec &
mut(const ExperimentSpec &spec)
{
    return const_cast<ExperimentSpec &>(spec);
}

/** -0 reads as +0: the two are equal specs, so they must share one
    text and one result id. */
void positiveZero(double &v) { if (v == 0.0) v = 0.0; }
void positiveZero(std::optional<double> &v) { if (v) positiveZero(*v); }
template <typename T>
void positiveZero(T &) {}

/** The Codec of the field @p Field (a `T &(*)(ExperimentSpec &)`). */
template <auto Field>
constexpr Codec
field()
{
    using T = std::remove_reference_t<decltype(Field(mut({})))>;
    return {[](ExperimentSpec &s, const std::string &k,
               const std::string &v) {
                parseInto(Field(s), k, v);
                positiveZero(Field(s));
            },
            [](const ExperimentSpec &s) { return textOf(Field(mut(s))); },
            [](const ExperimentSpec &s) { return numberOf(Field(mut(s))); },
            [](const ExperimentSpec &a, const ExperimentSpec &b) {
                return Field(mut(a)) == Field(mut(b));
            },
            [](ExperimentSpec &to, const ExperimentSpec &from) {
                Field(to) = Field(mut(from));
            },
            [] {
                return std::string(acceptsOf(static_cast<const T *>(nullptr)));
            }};
}

/** The Codec of a choice among @p Names, read by @p Get (-1: none of
    them) and written by @p Set. */
template <const auto &Names, auto Get, auto Set>
constexpr Codec
choice()
{
    constexpr int n = int(std::size(Names));
    return {[](ExperimentSpec &s, const std::string &k,
               const std::string &v) {
                for (int i = 0; i < n; ++i)
                    if (v == Names[i])
                        return Set(s, i);
                badValue(k, v);
            },
            [](const ExperimentSpec &s) {
                const int i = Get(s);
                return std::string(i >= 0 ? Names[i] : "");
            },
            [](const ExperimentSpec &) { return std::optional<double>(); },
            [](const ExperimentSpec &a, const ExperimentSpec &b) {
                return Get(a) == Get(b);
            },
            [](ExperimentSpec &to, const ExperimentSpec &from) {
                if (const int i = Get(from); i >= 0)
                    Set(to, i);
            },
            [] {
                std::string all;
                for (int i = 0; i < n; ++i)
                    all += (i ? "|" : "") + std::string(Names[i]);
                return all;
            }};
}

/** The choice() of enum field @p Member, spelled by @p Names. */
template <auto Member, const auto &Names>
constexpr Codec
enumField()
{
    using E = std::remove_cvref_t<decltype(mut({}).*Member)>;
    return choice<Names,
                  [](const ExperimentSpec &s) { return int(s.*Member); },
                  [](ExperimentSpec &s, int i) { s.*Member = E(i); }>();
}

/** The named site whose location @p spec has, or -1 for a custom one. */
int
namedSiteOf(const ExperimentSpec &spec)
{
    using environment::kNamedSiteCount;
    static const auto named = [] {
        std::array<environment::Location, kNamedSiteCount> all;
        for (int i = 0; i < kNamedSiteCount; ++i)
            all[size_t(i)] =
                environment::namedLocation(environment::NamedSite(i));
        return all;
    }();
    for (int i = 0; i < kNamedSiteCount; ++i)
        if (spec.location == named[size_t(i)])
            return i;
    return -1;
}

void
setNamedSite(ExperimentSpec &spec, int site)
{
    spec.location = environment::namedLocation(environment::NamedSite(site));
}

/**
 * A numeric key's domain: an interval written as in mathematics
 * (@c lb is '[' or '(', @c rb is ']' or ')'; lb == 0 for none), an
 * integer flag, and a named rule where an interval is not enough.
 */
struct Domain
{
    char lb = 0;
    double lo = 0.0;
    double hi = 0.0;
    char rb = 0;
    bool integer = false;
    const char *rule = nullptr;  ///< What @c holds checks, in words.
    bool (*holds)(const ExperimentSpec &, double) = nullptr;
};

/** When formatSpec writes a key. */
enum class Emit
{
    Always,
    /** Optional keys, omitted at their default: spec texts from before
        a key existed keep their canonical bytes. */
    IfSet,
    IfNamed,   ///< `site`: only when a named site matches.
    IfCustom,  ///< location.* / climate.*: only when none does.
};

struct Key
{
    std::string_view name;
    unsigned role;  ///< A KeyRole.
    Codec codec;
    Domain domain = {};
    Emit emit = Emit::Always;
    /** The run kind that reads this key; the others ignore it, and it
        is checked only by validateSpec. */
    std::optional<RunKind> runKind = std::nullopt;
};

bool
dividesAMinute(const ExperimentSpec &, double step)
{
    // Sensors sample every max(60, step) seconds on the step grid.
    return step >= 60.0 || 60 % int64_t(step) == 0;
}

bool
withinAYearOfStart(const ExperimentSpec &spec, double end_day)
{
    return end_day > spec.startDay &&
           end_day <= double(spec.startDay) + util::kDaysPerYear;
}

#define F(path) field<[](ExperimentSpec &s) -> auto & { return s.path; }>()
#define CLIMATE(member) F(location.climate.member)
#define ENUM(member, names) enumField<&ExperimentSpec::member, names>()

// Rows are in canonical text order: formatSpec writes them top to
// bottom, so reordering rows changes every result-cache id.  DESIGN.md
// "Spec keys and domains" gives the reason for each domain.
constexpr Key kKeys[] = {
    {"run", kShapeKeys, ENUM(runKind, kRunKindKeys)},
    {"site", kLaneKeys, choice<kSiteKeys, namedSiteOf, setNamedSite>(), {},
     Emit::IfNamed},
    {"location.name", kLaneKeys, F(location.name), {}, Emit::IfCustom},
    {"location.latitude", kLaneKeys, F(location.latitude),
     {'[', -90, 90, ']'}, Emit::IfCustom},
    {"location.longitude", kLaneKeys, F(location.longitude),
     {'[', -180, 180, ']'}, Emit::IfCustom},
    {"climate.annual_mean", kLaneKeys, CLIMATE(annualMeanC),
     {'[', -60, 40, ']'}, Emit::IfCustom},
    {"climate.seasonal_amplitude", kLaneKeys, CLIMATE(seasonalAmplitudeC),
     {'[', 0, 40, ']'}, Emit::IfCustom},
    {"climate.diurnal_amplitude", kLaneKeys, CLIMATE(diurnalAmplitudeC),
     {'[', 0, 20, ']'}, Emit::IfCustom},
    {"climate.synoptic_amplitude", kLaneKeys, CLIMATE(synopticAmplitudeC),
     {'[', 0, 20, ']'}, Emit::IfCustom},
    {"climate.dew_point_depression", kLaneKeys, CLIMATE(dewPointDepressionC),
     {'[', 0, 40, ']'}, Emit::IfCustom},
    {"climate.dew_point_variability", kLaneKeys,
     CLIMATE(dewPointVariabilityC), {'[', 0, 15, ']'}, Emit::IfCustom},
    {"climate.southern_hemisphere", kLaneKeys, CLIMATE(southernHemisphere),
     {}, Emit::IfCustom},
    {"climate.seasonal_peak_day", kLaneKeys, CLIMATE(seasonalPeakDay),
     {'[', 0, 366, ')'}, Emit::IfCustom},
    {"climate.diurnal_peak_hour", kLaneKeys, CLIMATE(diurnalPeakHour),
     {'[', 0, 24, ')'}, Emit::IfCustom},
    {"system", kShapeKeys, ENUM(system, kSystemKeys)},
    {"style", kShapeKeys, ENUM(style, kStyleKeys)},
    {"variant", kShapeKeys, ENUM(variant, kVariantKeys)},
    {"workload", kShapeKeys, ENUM(workload, kWorkloadKeys)},
    {"max_temp", kShapeKeys, F(maxTempC), {'[', -40, 65, ']'}},
    {"forecast_bias", kShapeKeys, F(forecastError.biasC), {'[', -50, 50, ']'}},
    {"forecast_noise", kShapeKeys, F(forecastError.noiseStddevC),
     {'[', 0, 50, ']'}},
    {"weeks", kShapeKeys, F(weeks), {'[', 1, 52, ']'}, Emit::Always,
     RunKind::YearWeekly},
    {"day", kShapeKeys, F(day), {'[', 0, 365, ')'}, Emit::Always,
     RunKind::SingleDay},
    {"start_day", kShapeKeys, F(startDay), {'[', 0, 365, ')'}, Emit::Always,
     RunKind::DayRange},
    {"end_day", kShapeKeys, F(endDay),
     {0, 0, 0, 0, false, "greater than start_day and at most start_day + 365",
      withinAYearOfStart},
     Emit::Always, RunKind::DayRange},
    {"physics_step", kShapeKeys, F(physicsStepS),
     {'[', 1, 3600, ']', true, "that divides 60 when below 60",
      dividesAMinute}},
    {"seed", kLaneKeys, F(seed)},
    {"weather_cache", kShapeKeys, F(weatherCache)},
    {"result_cache", kCacheKeys, F(resultCache), {}, Emit::IfSet},
    {"cache_dir", kOutputKeys, F(cacheDirPath), {}, Emit::IfSet},
    {"trace_csv", kOutputKeys, F(traceCsvPath), {}, Emit::IfSet},
    {"report_json", kOutputKeys, F(reportJsonPath), {}, Emit::IfSet},
    {"trace_json", kOutputKeys, F(traceJsonPath), {}, Emit::IfSet},
    {"band_width", kShapeKeys, F(bandWidthC), {'(', 0, 20, ']'}, Emit::IfSet},
    {"band_offset", kShapeKeys, F(bandOffsetC), {'[', -20, 20, ']'},
     Emit::IfSet},
    {"switch_penalty", kShapeKeys, F(switchPenalty), {'[', 0, 100, ']'},
     Emit::IfSet},
    {"sleep_decay", kShapeKeys, F(sleepDecayPerEpoch), {'[', 0, 1, ']'},
     Emit::IfSet},
    {"horizon", kShapeKeys, F(horizonSteps), {'[', 1, 720, ']'}, Emit::IfSet},
    // batch = 0 (the scalar path) is omitted, so batched and scalar
    // specs never share a result-cache id.
    {"batch", kShapeKeys, F(batch), {'[', 0, 1024, ']'}, Emit::IfSet},
};

#undef ENUM
#undef CLIMATE
#undef F

const ExperimentSpec kDefaults{};

/** The domain in words: "an integer in [1, 3600] that divides ...". */
std::string
domainText(const Domain &d)
{
    std::string out = d.integer ? "an integer " : "";
    if (d.lb)
        out += "in " + (d.lb + fmtShort(d.lo)) + ", " + fmtShort(d.hi) +
               d.rb;
    if (d.rule)
        out += (d.lb ? " " : "") + std::string(d.rule);
    return out;
}

/** Why @p key's value in @p spec is outside its domain ("" if not). */
std::string
violation(const Key &key, const ExperimentSpec &spec)
{
    const std::optional<double> number = key.codec.number(spec);
    if (!number)
        return "";
    const double v = *number;
    const Domain &d = key.domain;
    const bool in_interval =
        !d.lb || ((d.lb == '[' ? v >= d.lo : v > d.lo) &&
                  (d.rb == ']' ? v <= d.hi : v < d.hi));
    // In order: `holds` may cast v to an integer.
    if (in_interval && (!d.integer || v == std::floor(v)) &&
        (!d.holds || d.holds(spec, v)))
        return "";
    // A non-positive value in a positive domain keeps the run plan's
    // historical wording ("weeks must be positive").
    if (v <= 0.0 && d.lb && (d.lo > 0.0 || (d.lo == 0.0 && d.lb == '('))) {
        std::string words(key.name);
        std::replace(words.begin(), words.end(), '_', ' ');
        return words + " must be positive";
    }
    return std::string(key.name) + " must be " + domainText(d) + " (got " +
           fmtShort(v) + ")";
}

void
applyKeyValue(ExperimentSpec &spec, const std::string &name,
              const std::string &value)
{
    const Key *key = std::find_if(std::begin(kKeys), std::end(kKeys),
                                  [&](const Key &k) { return k.name == name; });
    if (key == std::end(kKeys))
        throw std::invalid_argument("spec: unknown key '" + name + "'");
    key->codec.parse(spec, name, value);
    // A run-kind key waits for validateSpec: the run kind may come later.
    if (key->runKind)
        return;
    const std::string why = violation(*key, spec);
    if (!why.empty())
        throw std::invalid_argument("spec: bad value for '" + name + "': '" +
                                    value + "' (" + why + ")");
}

} // anonymous namespace

// ---------------------------------------------------------------------------
// Walks over the key table.
// ---------------------------------------------------------------------------

namespace {

/** formatSpec(), with @p identity writing every run-kind key the spec's
    run kind does not read at its default. */
std::string
formatKeys(const ExperimentSpec &spec, unsigned roles, bool identity)
{
    const bool named = namedSiteOf(spec) >= 0;
    std::string out;
    out.reserve(1024);
    for (const Key &key : kKeys) {
        if (!(key.role & roles) ||
            (key.emit == Emit::IfSet && key.codec.same(spec, kDefaults)) ||
            (key.emit == Emit::IfNamed && !named) ||
            (key.emit == Emit::IfCustom && named))
            continue;
        const bool unread = key.runKind && *key.runKind != spec.runKind;
        out.append(key.name).append(" = ");
        out.append(key.codec.text(identity && unread ? kDefaults : spec))
            .append("\n");
    }
    return out;
}

} // anonymous namespace

std::string
formatSpec(const ExperimentSpec &spec, unsigned roles)
{
    return formatKeys(spec, roles, /*identity=*/false);
}

std::string
formatSpecIdentity(const ExperimentSpec &spec, unsigned roles)
{
    return formatKeys(spec, roles, /*identity=*/true);
}

void
copySpecKeys(ExperimentSpec &to, const ExperimentSpec &from, unsigned roles)
{
    for (const Key &key : kKeys)
        if (key.role & roles)
            key.codec.copy(to, from);
}

std::vector<SpecViolation>
validateSpec(const ExperimentSpec &spec)
{
    std::vector<SpecViolation> out;
    for (const Key &key : kKeys) {
        if (key.runKind && *key.runKind != spec.runKind)
            continue;
        std::string why = violation(key, spec);
        if (!why.empty())
            out.push_back({key.name.data(), std::move(why)});
    }
    return out;
}

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
    std::string what;
    for (const SpecViolation &v : validateSpec(spec))
        what += (what.empty() ? "" : "; ") + v.what;
    if (!what.empty())
        throw std::invalid_argument("spec: " + what);
    return spec;
}

std::string
formatSpecKeyTable()
{
    const ExperimentSpec defaults = parseSpec("");
    std::string out;
    char line[512];
    std::snprintf(line, sizeof(line), "%-30s %-20s %s\n", "key", "default",
                  "domain");
    out += line;
    for (const Key &key : kKeys) {
        const std::string value = key.codec.text(defaults);
        std::string accepts = key.codec.accepts();
        if (accepts.empty())
            accepts = domainText(key.domain);
        if (key.runKind)
            accepts += std::string(" (run = ") + runKindKey(*key.runKind) +
                       ")";
        std::snprintf(line, sizeof(line), "%-30s %-20s %s\n",
                      std::string(key.name).c_str(),
                      value.empty() ? "-" : value.c_str(), accepts.c_str());
        out += line;
    }
    return out;
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
        os << prefix << "." << f.key << " = " << textOf(s.*(f.field))
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
            parseInto(s.*(kSummaryFields[i].field), key, value);
            seen[i] = true;
            return true;
        }
    }
    if (field == "days") {
        parseInto(s.days, key, value);
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
            int version = 0;
            parseInto(version, key, value);
            if (version != kResultFormatVersion)
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
