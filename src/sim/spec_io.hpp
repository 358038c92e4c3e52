#ifndef COOLAIR_SIM_SPEC_IO_HPP
#define COOLAIR_SIM_SPEC_IO_HPP

/**
 * @file
 * Human-readable serialization of ExperimentSpec: a `key = value` text
 * form with a strict round-trip guarantee,
 *
 *     parseSpec(formatSpec(spec)) == spec
 *
 * so any experiment can be stored in a file, diffed, and replayed from
 * examples/experiment_cli.  Parsing is strict: unknown keys and
 * malformed values throw std::invalid_argument naming the offending
 * key (and, when parsing multi-line text, the 1-based line number), so
 * a typo'd spec file fails loudly instead of silently running the
 * default experiment.
 *
 * The same module serializes ExperimentResult (formatResult /
 * parseResult) with the identical exactness guarantee; the persistent
 * result store (src/store/, sim/result_cache.hpp) persists results in
 * this form, so cached sweeps are byte-identical to fresh ones.
 *
 * Lines are `key = value` (spaces optional); blank lines and full-line
 * `#` comments are ignored.  Locations serialize as the `site` shortcut
 * when they exactly match one of the five named sites, and as explicit
 * `location.*` / `climate.*` keys otherwise.
 *
 * Every key is one row of the key table in spec_io.cpp: its name, its
 * field and text codec, its domain, and its role.  Parsing,
 * formatting, validation, the result-cache id, the batch-shape key and
 * `experiment_cli --list-keys` are all walks over that table.
 */

#include <string>
#include <vector>

#include "sim/experiment.hpp"

namespace coolair {
namespace sim {

/** Which identities derived from a spec include a key (a bit mask). */
enum KeyRole : unsigned
{
    kShapeKeys = 1,   ///< Model and run shape: result id and batch shape.
    kLaneKeys = 2,    ///< site, location.*, climate.*, seed: the result
                      ///< id; the batch shape reads them as neutral.
    kOutputKeys = 4,  ///< trace_csv, report_json, trace_json, cache_dir.
    kCacheKeys = 8,   ///< result_cache: the batch shape only.
    kAllKeys = 15,
};

/**
 * Render the keys of @p roles as spec-file text (ends with a newline),
 * in table order.  Optional keys at their default are omitted.
 */
std::string formatSpec(const ExperimentSpec &spec, unsigned roles = kAllKeys);

/**
 * formatSpec() for an identity (the result-cache id, the batch shape):
 * a run-kind key (weeks, day, start_day, end_day) that the spec's run
 * kind does not read is written at its default, so it cannot split one
 * experiment into two ids.  Not a round trip: parsing it back loses
 * those keys' values.
 */
std::string formatSpecIdentity(const ExperimentSpec &spec, unsigned roles);

/** Set every key of @p roles in @p to its value in @p from. */
void copySpecKeys(ExperimentSpec &to, const ExperimentSpec &from,
                  unsigned roles);

/** One key outside its domain. */
struct SpecViolation
{
    const char *key;   ///< The offending key.
    std::string what;  ///< What its value must be, as a sentence.
};

/**
 * Check every key against its domain, and each run-kind key (weeks,
 * day, start_day, end_day) only when the spec's run kind reads it.
 * @returns every violation, in table order (empty when valid).
 */
std::vector<SpecViolation> validateSpec(const ExperimentSpec &spec);

/**
 * Parse spec-file text into a spec, starting from the defaults, and
 * validate it.
 * @throws std::invalid_argument on unknown keys, malformed values or
 *         any validateSpec violation, naming the key.
 */
ExperimentSpec parseSpec(const std::string &text);

/**
 * Apply spec-file text on top of an existing spec (later keys win).
 * Each key is checked against its own domain as it is applied; the
 * run-kind keys are left to validateSpec.
 * @throws std::invalid_argument on unknown keys or malformed values.
 */
void applySpecText(ExperimentSpec &spec, const std::string &text);

/**
 * Apply one `key=value` assignment (the experiment_cli override form),
 * checked as in applySpecText.
 * @throws std::invalid_argument on unknown keys or malformed values.
 */
void applySpecAssignment(ExperimentSpec &spec, const std::string &assignment);

/** Every key with its default (parseSpec("")) and domain, one a line. */
std::string formatSpecKeyTable();

/**
 * Version of the result text form below.  Bump whenever formatResult's
 * shape changes (a field added, removed, or renamed): the result store
 * keys entries on this version, so old entries turn stale instead of
 * failing to parse.
 */
inline constexpr int kResultFormatVersion = 1;

/**
 * Render an ExperimentResult as `key = value` text (ends with a
 * newline).  Values use %.17g, so parseResult(formatResult(r)) == r
 * bit for bit — the round-trip guarantee the result store relies on.
 */
std::string formatResult(const ExperimentResult &result);

/**
 * Parse formatResult() text.  Strict: the version header and every
 * field must be present, unknown keys throw.
 * @throws std::invalid_argument on any malformed or incomplete text.
 */
ExperimentResult parseResult(const std::string &text);

// Spec-file key for each enumerator (the inverse of parsing; exhaustive).
const char *systemKey(SystemId id);
const char *workloadKey(WorkloadKind kind);
const char *variantKey(PlantVariant variant);
const char *styleKey(cooling::ActuatorStyle style);
const char *runKindKey(RunKind kind);
const char *siteKey(environment::NamedSite site);

} // namespace sim
} // namespace coolair

#endif // COOLAIR_SIM_SPEC_IO_HPP
