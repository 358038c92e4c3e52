/**
 * @file
 * End-to-end tests for the persistent experiment result cache: warm
 * sweeps must be byte-identical to cold ones at any thread count,
 * corrupt or stale entries must transparently re-run, failing specs
 * must never poison the store, and cache activity must show up in
 * RunReport JSON.  The warm-vs-cold speedup gate lives in
 * tests/test_cache_speedup.cpp (slow-labelled).
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "environment/world_grid.hpp"
#include "sim/batch_engine.hpp"
#include "sim/result_cache.hpp"
#include "sim/runner.hpp"
#include "sim/spec_io.hpp"
#include "store/result_store.hpp"

using namespace coolair;
using namespace coolair::sim;
namespace fs = std::filesystem;

namespace {

/** A world sweep shrunk to a 1-week year sample, cache enabled. */
std::vector<ExperimentSpec>
cachedSweepSpecs(size_t num_sites, const std::string &cache_dir)
{
    auto sites = environment::worldGrid(num_sites);
    std::vector<ExperimentSpec> specs;
    specs.reserve(sites.size() * 2);
    for (size_t i = 0; i < sites.size(); ++i) {
        ExperimentSpec spec;
        spec.location = sites[i];
        spec.workload = WorkloadKind::FacebookProfile;
        spec.weeks = 1;
        spec.physicsStepS = 120.0;
        spec.seed = ExperimentRunner::deriveSeed(7, i, sites[i].name);
        spec.cacheDirPath = cache_dir;
        spec.system = SystemId::Baseline;
        specs.push_back(spec);
        spec.system = SystemId::AllNd;
        specs.push_back(spec);
    }
    return specs;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/** The exact serialized bytes of every result, concatenated in order. */
std::string
sweepBytes(const SweepOutcome &sweep)
{
    std::string bytes;
    for (const auto &r : sweep.results)
        bytes += formatResult(r);
    return bytes;
}

} // anonymous namespace

class ResultCacheTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        const ::testing::TestInfo *info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        dir = (fs::temp_directory_path() /
               (std::string("coolair-cache-") + info->name()))
                  .string();
        fs::remove_all(dir);
    }
    void TearDown() override { fs::remove_all(dir); }

    std::string dir;
};

TEST_F(ResultCacheTest, WarmSweepIsByteIdenticalAtAnyThreadCount)
{
    std::vector<ExperimentSpec> specs = cachedSweepSpecs(8, dir);

    RunnerConfig cold_config;
    cold_config.threads = 2;
    SweepOutcome cold = ExperimentRunner(cold_config).run(specs);
    ASSERT_TRUE(cold.allOk());
    EXPECT_EQ(0u, cold.cacheHits());
    const std::string cold_bytes = sweepBytes(cold);

    for (int threads : {1, 3, 8}) {
        RunnerConfig config;
        config.threads = threads;
        SweepOutcome warm = ExperimentRunner(config).run(specs);
        ASSERT_TRUE(warm.allOk());
        EXPECT_EQ(specs.size(), warm.cacheHits()) << threads << " threads";
        // The merged output must match the cold run byte for byte.
        EXPECT_EQ(cold_bytes, sweepBytes(warm)) << threads << " threads";
    }
}

TEST_F(ResultCacheTest, CorruptAndStaleEntriesReRunTransparently)
{
    std::vector<ExperimentSpec> specs = cachedSweepSpecs(4, dir);
    SweepOutcome cold = ExperimentRunner(RunnerConfig{1}).run(specs);
    ASSERT_TRUE(cold.allOk());
    const std::string cold_bytes = sweepBytes(cold);

    // Corrupt one entry (bit flip) and truncate another.
    store::ResultStore st = openResultStore(dir);
    const std::string path2 = st.entryPath(resultCacheId(specs[2]));
    std::string bytes = readFile(path2);
    bytes[bytes.size() - 2] ^= 0x10;
    {
        std::ofstream out(path2, std::ios::binary | std::ios::trunc);
        out << bytes;
    }
    const std::string path5 = st.entryPath(resultCacheId(specs[5]));
    bytes = readFile(path5);
    {
        std::ofstream out(path5, std::ios::binary | std::ios::trunc);
        out << bytes.substr(0, bytes.size() / 2);
    }

    SweepOutcome warm = ExperimentRunner(RunnerConfig{1}).run(specs);
    ASSERT_TRUE(warm.allOk());
    // Exactly the two damaged specs re-ran; everything else hit.
    EXPECT_EQ(specs.size() - 2, warm.cacheHits());
    EXPECT_EQ(0, warm.fromCache[2]);
    EXPECT_EQ(0, warm.fromCache[5]);
    // Damaged entries were re-run and re-stored, so the merged output
    // is still byte-identical and the next sweep hits everywhere.
    EXPECT_EQ(cold_bytes, sweepBytes(warm));
    SweepOutcome again = ExperimentRunner(RunnerConfig{1}).run(specs);
    EXPECT_EQ(specs.size(), again.cacheHits());
}

TEST_F(ResultCacheTest, SaltBumpInvalidatesEverything)
{
    std::vector<ExperimentSpec> specs = cachedSweepSpecs(2, dir);
    SweepOutcome cold = ExperimentRunner(RunnerConfig{1}).run(specs);
    ASSERT_TRUE(cold.allOk());

    // A store opened under a different salt (simulating a sim-semantics
    // bump) sees none of the old entries.
    store::ResultStore bumped(dir, "coolair-sim-NEXT", kResultFormatVersion);
    for (const auto &spec : specs) {
        std::string payload;
        EXPECT_FALSE(bumped.lookup(resultCacheId(spec), payload));
    }
}

TEST_F(ResultCacheTest, FailingSpecIsReportedAndNeverStored)
{
    std::vector<ExperimentSpec> specs = cachedSweepSpecs(3, dir);
    specs[3].weeks = -1;  // unrunnable: the scenario builder throws

    SweepOutcome cold = ExperimentRunner(RunnerConfig{2}).run(specs);
    ASSERT_EQ(1u, cold.failures.size());
    EXPECT_EQ(3u, cold.failures[0].index);
    EXPECT_EQ(-1, cold.failures[0].spec.weeks);
    EXPECT_FALSE(cold.failures[0].message.empty());
    EXPECT_FALSE(cold.ok(3));
    EXPECT_EQ(0, cold.fromCache[3]);

    // The failing spec wrote nothing: only the good specs are on disk,
    // and its entry path does not exist.
    store::ResultStore st = openResultStore(dir);
    EXPECT_EQ(specs.size() - 1, size_t(st.diskUsage().entries));
    EXPECT_FALSE(fs::exists(st.entryPath(resultCacheId(specs[3]))));

    // A warm re-run serves every good spec and reports the bad one
    // again (it re-runs every time; failures are never cached).
    SweepOutcome warm = ExperimentRunner(RunnerConfig{2}).run(specs);
    ASSERT_EQ(1u, warm.failures.size());
    EXPECT_EQ(3u, warm.failures[0].index);
    EXPECT_EQ(specs.size() - 1, warm.cacheHits());
    for (size_t i = 0; i < specs.size(); ++i) {
        if (i != 3 && cold.ok(i)) {
            EXPECT_EQ(formatResult(cold.results[i]),
                      formatResult(warm.results[i]));
        }
    }
}

TEST_F(ResultCacheTest, TraceSpecsAreNeverCached)
{
    std::vector<ExperimentSpec> specs = cachedSweepSpecs(1, dir);
    specs[0].traceCsvPath = dir + "-trace.csv";
    ASSERT_FALSE(resultCacheUsable(specs[0]));
    ASSERT_TRUE(resultCacheUsable(specs[1]));

    for (int round = 0; round < 2; ++round) {
        SweepOutcome sweep = ExperimentRunner(RunnerConfig{1}).run(specs);
        ASSERT_TRUE(sweep.allOk());
        EXPECT_EQ(0, sweep.fromCache[0]) << "round " << round;
        // The trace side output is produced on every run, not only the
        // first: remove it and check the next round recreates it.
        EXPECT_TRUE(fs::exists(specs[0].traceCsvPath)) << "round " << round;
        fs::remove(specs[0].traceCsvPath);
    }
    store::ResultStore st = openResultStore(dir);
    EXPECT_EQ(1u, st.diskUsage().entries);
}

TEST_F(ResultCacheTest, RunReportsCarryStoreStatsAndProvenance)
{
    std::vector<ExperimentSpec> specs = cachedSweepSpecs(1, dir);
    const std::string report_path = dir + "-report.json";
    specs[1].reportJsonPath = report_path;

    SweepOutcome cold = ExperimentRunner(RunnerConfig{1}).run(specs);
    ASSERT_TRUE(cold.allOk());
    std::string report = readFile(report_path);
    // A cold run's report shows the store's activity (the miss and the
    // store) but no cache provenance: the metrics came from the engine.
    EXPECT_NE(std::string::npos, report.find("\"store.misses\"")) << report;
    EXPECT_NE(std::string::npos, report.find("\"store.stores\"")) << report;
    EXPECT_EQ(std::string::npos, report.find("result_source")) << report;

    fs::remove(report_path);
    SweepOutcome warm = ExperimentRunner(RunnerConfig{1}).run(specs);
    ASSERT_TRUE(warm.allOk());
    EXPECT_EQ(specs.size(), warm.cacheHits());
    report = readFile(report_path);
    // A warm hit still writes the report, now annotated as served from
    // the cache and carrying the hit in its stats block.
    EXPECT_NE(std::string::npos,
              report.find("\"result_source\": \"cache\""))
        << report;
    EXPECT_NE(std::string::npos, report.find("\"store.hits\"")) << report;
}


// ---------------------------------------------------------------------------
// Golden canonical text.  The store keys every entry on resultCacheId's
// bytes and the batch scheduler groups lanes by batchShapeKey's, so these
// texts are pinned byte for byte: a drift would strand every stored
// result.  The round-trip fuzz only checks that they agree with
// themselves.
// ---------------------------------------------------------------------------

namespace {

/** The fields every spec below shares after `physics_step`. */
constexpr const char kFig8Head[] = "run = year\n"
                                   "site = newark\n"
                                   "system = allnd\n";

constexpr const char kFig8Body[] = "style = smooth\n"
                                   "variant = standard\n"
                                   "workload = facebook\n"
                                   "max_temp = 30\n"
                                   "forecast_bias = 0\n"
                                   "forecast_noise = 0\n"
                                   "weeks = 52\n"
                                   "day = 186\n"
                                   "start_day = 0\n"
                                   "end_day = 7\n"
                                   "physics_step = 30\n";

/** batchShapeKey's lane block: the location of a default spec. */
constexpr const char kNeutralLocation[] =
    "location.name = \n"
    "location.latitude = 0\n"
    "location.longitude = 0\n"
    "climate.annual_mean = 12\n"
    "climate.seasonal_amplitude = 10\n"
    "climate.diurnal_amplitude = 5\n"
    "climate.synoptic_amplitude = 3\n"
    "climate.dew_point_depression = 6\n"
    "climate.dew_point_variability = 2\n"
    "climate.southern_hemisphere = false\n"
    "climate.seasonal_peak_day = 201\n"
    "climate.diurnal_peak_hour = 15\n";

constexpr const char kCustomSpec[] = "run = day\n"
                                     "location.name = custom-site\n"
                                     "location.latitude = 52.37\n"
                                     "location.longitude = 4.9\n"
                                     "climate.annual_mean = 10.1\n"
                                     "climate.seasonal_amplitude = 7.3\n"
                                     "climate.diurnal_amplitude = 4.4\n"
                                     "climate.synoptic_amplitude = 3.3\n"
                                     "climate.dew_point_depression = 4.1\n"
                                     "climate.dew_point_variability = 2.2\n"
                                     "climate.southern_hemisphere = true\n"
                                     "climate.seasonal_peak_day = 20.5\n"
                                     "climate.diurnal_peak_hour = 14.25\n"
                                     "system = variation\n"
                                     "style = abrupt\n"
                                     "variant = evaporative\n"
                                     "workload = nutch\n"
                                     "max_temp = 27.5\n"
                                     "forecast_bias = -1.5\n"
                                     "forecast_noise = 0.75\n"
                                     "day = 42\n"
                                     "physics_step = 60\n"
                                     "seed = 123456789012345\n"
                                     "weather_cache = false\n";

constexpr const char kCustomLocation[] =
    "location.name = custom-site\n"
    "location.latitude = 52.369999999999997\n"
    "location.longitude = 4.9000000000000004\n"
    "climate.annual_mean = 10.1\n"
    "climate.seasonal_amplitude = 7.2999999999999998\n"
    "climate.diurnal_amplitude = 4.4000000000000004\n"
    "climate.synoptic_amplitude = 3.2999999999999998\n"
    "climate.dew_point_depression = 4.0999999999999996\n"
    "climate.dew_point_variability = 2.2000000000000002\n"
    "climate.southern_hemisphere = true\n"
    "climate.seasonal_peak_day = 20.5\n"
    "climate.diurnal_peak_hour = 14.25\n";

constexpr const char kCustomBody[] = "system = variation\n"
                                     "style = abrupt\n"
                                     "variant = evaporative\n"
                                     "workload = nutch\n"
                                     "max_temp = 27.5\n"
                                     "forecast_bias = -1.5\n"
                                     "forecast_noise = 0.75\n"
                                     "weeks = 52\n"
                                     "day = 42\n"
                                     "start_day = 0\n"
                                     "end_day = 7\n"
                                     "physics_step = 60\n";

/** Every optional key set (batch = 8 among them). */
constexpr const char kAllSetSpec[] = "site = chad\n"
                                     "run = range\n"
                                     "start_day = 10\n"
                                     "end_day = 17\n"
                                     "result_cache = false\n"
                                     "cache_dir = /tmp/store\n"
                                     "trace_csv = /tmp/t.csv\n"
                                     "report_json = /tmp/r.json\n"
                                     "trace_json = /tmp/t.json\n"
                                     "band_width = 4.5\n"
                                     "band_offset = 6.25\n"
                                     "switch_penalty = 2\n"
                                     "sleep_decay = 0.9\n"
                                     "horizon = 12\n"
                                     "batch = 8\n";

constexpr const char kAllSetBody[] = "system = baseline\n"
                                     "style = smooth\n"
                                     "variant = standard\n"
                                     "workload = facebook\n"
                                     "max_temp = 30\n"
                                     "forecast_bias = 0\n"
                                     "forecast_noise = 0\n"
                                     "weeks = 52\n"
                                     "day = 186\n"
                                     "start_day = 10\n"
                                     "end_day = 17\n"
                                     "physics_step = 30\n";

constexpr const char kAllSetOutputs[] = "result_cache = false\n"
                                        "cache_dir = /tmp/store\n"
                                        "trace_csv = /tmp/t.csv\n"
                                        "report_json = /tmp/r.json\n"
                                        "trace_json = /tmp/t.json\n";

constexpr const char kAllSetTuning[] =
    "band_width = 4.5\n"
    "band_offset = 6.25\n"
    "switch_penalty = 2\n"
    "sleep_decay = 0.90000000000000002\n"
    "horizon = 12\n"
    "batch = 8\n";

/** The unset defaults: Newark, baseline, the §5.1 year. */
constexpr const char kDefaultBody[] = "system = baseline\n"
                                      "style = smooth\n"
                                      "variant = standard\n"
                                      "workload = facebook\n"
                                      "max_temp = 30\n"
                                      "forecast_bias = 0\n"
                                      "forecast_noise = 0\n"
                                      "weeks = 52\n"
                                      "day = 186\n"
                                      "start_day = 0\n"
                                      "end_day = 7\n"
                                      "physics_step = 30\n";

struct Golden
{
    const char *name;
    std::string spec;    ///< Spec text fed to parseSpec.
    std::string format;  ///< formatSpec.
    std::string id;      ///< resultCacheId.
    std::string shape;   ///< batchShapeKey.
};

std::vector<Golden>
goldens()
{
    const std::string fig8 =
        readFile(std::string(COOLAIR_SOURCE_DIR) +
                 "/examples/specs/fig8_newark_allnd.spec");
    const std::string fig8_text = std::string(kFig8Head) + kFig8Body +
                                  "seed = 7\nweather_cache = true\n";
    const std::string fig8_shape =
        std::string("run = year\n") + kNeutralLocation + "system = allnd\n" +
        kFig8Body + "seed = 0\nweather_cache = true\n";
    const std::string custom_text =
        std::string("run = day\n") + kCustomLocation + kCustomBody +
        "seed = 123456789012345\nweather_cache = false\n";
    const std::string custom_shape =
        std::string("run = day\n") + kNeutralLocation + kCustomBody +
        "seed = 0\nweather_cache = false\n";
    const std::string all_set_head =
        std::string("run = range\nsite = chad\n") + kAllSetBody +
        "seed = 7\nweather_cache = true\n";
    const std::string default_text =
        std::string("run = year\nsite = newark\n") + kDefaultBody +
        "seed = 7\nweather_cache = true\n";
    // Equal specs share one id: -0 reads as +0, and a key the run kind
    // does not read (weeks under run = day) is in the id at its default.
    const auto edited = [](std::string text, const std::string &from,
                           const std::string &to) {
        return text.replace(text.find(from), from.size(), to);
    };
    const std::string zero_body =
        edited(kDefaultBody, "max_temp = 30", "max_temp = 0");
    const std::string zero_text =
        "run = year\nsite = newark\n" + zero_body +
        "seed = 7\nweather_cache = true\n";
    const std::string zero_shape = "run = year\n" +
                                   std::string(kNeutralLocation) + zero_body +
                                   "seed = 0\nweather_cache = true\n";
    const std::string day_text = "run = day\nsite = newark\n" +
                                 std::string(kDefaultBody) +
                                 "seed = 7\nweather_cache = true\n";
    const std::string day_shape = "run = day\n" +
                                  std::string(kNeutralLocation) +
                                  kDefaultBody +
                                  "seed = 0\nweather_cache = true\n";
    return {
        {"fig8", fig8, fig8_text, fig8_text, fig8_shape},
        {"fig8 batch=0", fig8 + "batch = 0\n", fig8_text, fig8_text,
         fig8_shape},
        {"fig8 batch=8", fig8 + "batch = 8\n", fig8_text + "batch = 8\n",
         fig8_text + "batch = 8\n", fig8_shape + "batch = 8\n"},
        {"custom location", kCustomSpec, custom_text, custom_text,
         custom_shape},
        {"every optional key set", kAllSetSpec,
         all_set_head + kAllSetOutputs + kAllSetTuning,
         all_set_head + kAllSetTuning,
         std::string("run = range\n") + kNeutralLocation + kAllSetBody +
             "seed = 0\nweather_cache = true\nresult_cache = false\n" +
             kAllSetTuning},
        {"every optional key unset", "", default_text, default_text,
         std::string("run = year\n") + kNeutralLocation + kDefaultBody +
             "seed = 0\nweather_cache = true\n"},
        {"max_temp = 0", "max_temp = 0\n", zero_text, zero_text,
         zero_shape},
        {"max_temp = -0", "max_temp = -0\n", zero_text, zero_text,
         zero_shape},
        {"run = day", "run = day\n", day_text, day_text, day_shape},
        {"run = day, weeks = 3", "run = day\nweeks = 3\n",
         edited(day_text, "weeks = 52", "weeks = 3"), day_text, day_shape},
    };
}

} // anonymous namespace

TEST(CanonicalText, FormatIdAndShapeAreGolden)
{
    for (const Golden &g : goldens()) {
        const ExperimentSpec spec = parseSpec(g.spec);
        EXPECT_EQ(g.format, formatSpec(spec)) << g.name;
        EXPECT_EQ(g.id, resultCacheId(spec)) << g.name;
        EXPECT_EQ(g.shape, batchShapeKey(spec)) << g.name;
    }
}
