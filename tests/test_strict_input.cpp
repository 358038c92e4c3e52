/**
 * @file
 * Strict-input regression tests for the untrusted-byte boundaries:
 * environment-variable knobs (atoi accepting typos), the result
 * store's size headers (unchecked digit accumulation wrapping to
 * small values and mis-framing the payload read), and the serve
 * protocol's request lines — including the telemetry verbs
 * (METRICS/SERIES/HEALTH/TRACE), whose arguments arrive straight off
 * a socket.
 */

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/predictor.hpp"
#include "model/cooling_model.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "sim/spec_io.hpp"
#include "store/result_store.hpp"
#include "util/parse.hpp"

using namespace coolair;
namespace fs = std::filesystem;

// ---------------------------------------------------------------- util/parse

TEST(ParseInt, AcceptsCompleteNumbers)
{
    long long v = 0;
    EXPECT_TRUE(util::parseInt("0", v));
    EXPECT_EQ(v, 0);
    EXPECT_TRUE(util::parseInt("-42", v));
    EXPECT_EQ(v, -42);
    EXPECT_TRUE(util::parseInt("+7", v));
    EXPECT_EQ(v, 7);
    EXPECT_TRUE(util::parseInt("9223372036854775807", v));
    EXPECT_EQ(v, 9223372036854775807LL);
}

TEST(ParseInt, RejectsPartialAndOverflow)
{
    long long v = 0;
    EXPECT_FALSE(util::parseInt("", v));
    EXPECT_FALSE(util::parseInt("8x", v));       // the atoi trap
    EXPECT_FALSE(util::parseInt("x8", v));
    EXPECT_FALSE(util::parseInt("-", v));
    EXPECT_FALSE(util::parseInt("1 ", v));
    EXPECT_FALSE(util::parseInt(" 1", v));
    EXPECT_FALSE(util::parseInt("9223372036854775808", v));  // LLONG_MAX+1
}

TEST(ParseDouble, AcceptsCompleteNumbers)
{
    double v = 0.0;
    EXPECT_TRUE(util::parseDouble("12.5", v));
    EXPECT_DOUBLE_EQ(v, 12.5);
    EXPECT_TRUE(util::parseDouble("-3e2", v));
    EXPECT_DOUBLE_EQ(v, -300.0);
    EXPECT_TRUE(util::parseDouble(".5", v));
    EXPECT_DOUBLE_EQ(v, 0.5);
}

TEST(ParseDouble, RejectsGarbageInfinityAndNan)
{
    double v = 0.0;
    EXPECT_FALSE(util::parseDouble("", v));
    EXPECT_FALSE(util::parseDouble("12abc", v));  // the atof trap
    EXPECT_FALSE(util::parseDouble("oops", v));
    EXPECT_FALSE(util::parseDouble("-", v));
    EXPECT_FALSE(util::parseDouble("1.5.2", v));
    EXPECT_FALSE(util::parseDouble("inf", v));
    EXPECT_FALSE(util::parseDouble("nan", v));
    EXPECT_FALSE(util::parseDouble("1e999", v));  // overflows to inf
    EXPECT_FALSE(util::parseDouble("0x10", v));   // hex floats
    EXPECT_FALSE(util::parseDouble(" 1", v));     // leading whitespace
}

TEST(ParseSize, RejectsOverflowInsteadOfWrapping)
{
    uint64_t v = 0;
    EXPECT_TRUE(util::parseSize("0", v));
    EXPECT_EQ(v, 0u);
    EXPECT_TRUE(util::parseSize("18446744073709551615", v));  // UINT64_MAX
    EXPECT_EQ(v, UINT64_MAX);
    // One past UINT64_MAX: digit accumulation would wrap to 0.
    EXPECT_FALSE(util::parseSize("18446744073709551616", v));
    EXPECT_FALSE(util::parseSize("99999999999999999999999", v));
    EXPECT_FALSE(util::parseSize("-1", v));  // sign is not a size
    EXPECT_FALSE(util::parseSize("+1", v));
    EXPECT_FALSE(util::parseSize("", v));
    EXPECT_FALSE(util::parseSize("12 ", v));
}

TEST(ParseSize, EnforcesCallerCap)
{
    uint64_t v = 0;
    EXPECT_TRUE(util::parseSize("1024", v, 1024));
    EXPECT_EQ(v, 1024u);
    EXPECT_FALSE(util::parseSize("1025", v, 1024));
}

TEST(EnvInt, UnsetYieldsFallbackSilently)
{
    ::unsetenv("COOLAIR_TEST_KNOB");
    EXPECT_EQ(util::envInt("COOLAIR_TEST_KNOB", 7), 7);
}

TEST(EnvInt, ParsesValidValues)
{
    ::setenv("COOLAIR_TEST_KNOB", "12", 1);
    EXPECT_EQ(util::envInt("COOLAIR_TEST_KNOB", 7), 12);
    ::unsetenv("COOLAIR_TEST_KNOB");
}

TEST(EnvInt, MalformedAndOutOfRangeFallBack)
{
    ::setenv("COOLAIR_TEST_KNOB", "8x", 1);  // typo'd knob
    EXPECT_EQ(util::envInt("COOLAIR_TEST_KNOB", 7), 7);
    ::setenv("COOLAIR_TEST_KNOB", "-1", 1);  // below the floor
    EXPECT_EQ(util::envInt("COOLAIR_TEST_KNOB", 7, 0, 100), 7);
    ::setenv("COOLAIR_TEST_KNOB", "101", 1);  // above the cap
    EXPECT_EQ(util::envInt("COOLAIR_TEST_KNOB", 7, 0, 100), 7);
    ::setenv("COOLAIR_TEST_KNOB", "", 1);  // empty counts as unset
    EXPECT_EQ(util::envInt("COOLAIR_TEST_KNOB", 7), 7);
    ::unsetenv("COOLAIR_TEST_KNOB");
}

// --------------------------------------------------- store size headers

namespace {

/** The single .res entry file in @p dir. */
fs::path
onlyEntry(const fs::path &dir)
{
    fs::path found;
    for (const auto &e : fs::directory_iterator(dir))
        if (e.path().extension() == ".res")
            found = e.path();
    return found;
}

std::string
readFile(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

void
writeFile(const fs::path &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
}

/** Replace one whole header line ("name old" -> "name new"). */
std::string
patchHeader(std::string blob, const std::string &name,
            const std::string &value)
{
    const std::string prefix = name + " ";
    const size_t at = blob.find("\n" + prefix) + 1;
    const size_t end = blob.find('\n', at);
    return blob.replace(at, end - at, prefix + value);
}

struct TempDir
{
    fs::path path;
    TempDir()
    {
        path = fs::temp_directory_path() /
               ("coolair_strict." +
                std::to_string(uint64_t(::getpid())) + "." +
                std::string(
                    ::testing::UnitTest::GetInstance()
                        ->current_test_info()
                        ->name()));
        fs::remove_all(path);
        fs::create_directories(path);
    }
    ~TempDir()
    {
        std::error_code ec;
        fs::remove_all(path, ec);
    }
};

} // anonymous namespace

TEST(StoreSizeHeaders, OverflowingCountIsCorruptNotCrash)
{
    TempDir dir;
    store::ResultStore store(dir.path.string(), "salt", 1);
    ASSERT_TRUE(store.store("spec-id", "payload text\n"));

    // A header whose digits wrap a 64-bit accumulator: with unchecked
    // accumulation this parsed as a small number and mis-framed the
    // payload read.
    const fs::path entry = onlyEntry(dir.path);
    ASSERT_FALSE(entry.empty());
    writeFile(entry, patchHeader(readFile(entry), "payload_bytes",
                                 "18446744073709551629"));  // wraps to 13

    std::string payload;
    EXPECT_FALSE(store.lookup("spec-id", payload));
    EXPECT_EQ(store.stats().corruptEntries, 1u);
    EXPECT_FALSE(fs::exists(entry));  // corrupt entries are removed
}

TEST(StoreSizeHeaders, AbsurdButNonWrappingCountIsCorrupt)
{
    TempDir dir;
    store::ResultStore store(dir.path.string(), "salt", 1);
    ASSERT_TRUE(store.store("spec-id", "payload text\n"));

    const fs::path entry = onlyEntry(dir.path);
    ASSERT_FALSE(entry.empty());
    // 4 GiB claimed: fits in 64 bits but exceeds the per-entry sanity
    // cap, so it must be rejected before any allocation is attempted.
    writeFile(entry, patchHeader(readFile(entry), "id_bytes",
                                 "4294967296"));

    std::string payload;
    EXPECT_FALSE(store.lookup("spec-id", payload));
    EXPECT_EQ(store.stats().corruptEntries, 1u);
}

TEST(StoreSizeHeaders, NonNumericCountIsCorrupt)
{
    TempDir dir;
    store::ResultStore store(dir.path.string(), "salt", 1);
    ASSERT_TRUE(store.store("spec-id", "payload text\n"));

    const fs::path entry = onlyEntry(dir.path);
    ASSERT_FALSE(entry.empty());
    writeFile(entry,
              patchHeader(readFile(entry), "payload_bytes", "13x"));

    std::string payload;
    EXPECT_FALSE(store.lookup("spec-id", payload));
    EXPECT_EQ(store.stats().corruptEntries, 1u);
}

TEST(StoreSizeHeaders, IntactEntryStillRoundTrips)
{
    TempDir dir;
    store::ResultStore store(dir.path.string(), "salt", 1);
    ASSERT_TRUE(store.store("spec-id", "payload text\n"));
    std::string payload;
    ASSERT_TRUE(store.lookup("spec-id", payload));
    EXPECT_EQ(payload, "payload text\n");
}

// --------------------------------------------------- serve protocol lines

namespace {

/** Parse one request line, expecting rejection; returns the error. */
std::string
requestError(const std::string &line)
{
    serve::Request req;
    std::string error;
    if (serve::parseRequest(line, req, error))
        return "";  // parsed fine (the caller EXPECTs a message)
    EXPECT_FALSE(error.empty()) << "silent rejection of '" << line << "'";
    return error;
}

} // anonymous namespace

TEST(ServeProtocol, ParsesTelemetryVerbs)
{
    serve::Request req;
    std::string error;
    ASSERT_TRUE(serve::parseRequest("METRICS", req, error)) << error;
    EXPECT_EQ(req.verb, serve::Verb::Metrics);
    ASSERT_TRUE(serve::parseRequest("HEALTH", req, error)) << error;
    EXPECT_EQ(req.verb, serve::Verb::Health);
    ASSERT_TRUE(serve::parseRequest("SERIES serve.requests 60", req,
                                    error))
        << error;
    EXPECT_EQ(req.verb, serve::Verb::Series);
    EXPECT_EQ(req.arg, "serve.requests 60");
    ASSERT_TRUE(serve::parseRequest("TRACE 7", req, error)) << error;
    EXPECT_EQ(req.verb, serve::Verb::Trace);
    EXPECT_EQ(req.arg, "7");
}

TEST(ServeProtocol, RejectsMalformedTelemetryLines)
{
    // Every rejection must name the problem; none may throw.  The
    // variants cover missing arguments, forbidden arguments, case
    // mangling, and whitespace abuse — all as they arrive off a socket.
    const char *lines[] = {
        "",
        " ",
        "METRICS now",       // METRICS takes no argument
        "HEALTH check",
        "SERIES",            // SERIES needs a stat name
        "TRACE",             // TRACE needs a ticket
        "metrics",           // verbs are case-sensitive
        "Series serve.requests",
        "TRACEROUTE 1",      // prefix of a verb is not the verb
        "METRICSX",
        "\tMETRICS",         // no leading whitespace tolerance
        " METRICS",
    };
    for (const char *line : lines)
        EXPECT_NE(requestError(line), "") << "'" << line << "'";
}

TEST(ServeProtocol, FrameHeaderRejectsHostileSizes)
{
    // The same strict-size discipline the store headers get: a count
    // that wraps, overflows the cap, or trails garbage is a framing
    // error before any allocation happens.
    std::string tag, error;
    uint64_t bytes = 0;
    EXPECT_TRUE(
        serve::parsePayloadHeader("METRICS 12", tag, bytes, error));
    EXPECT_EQ(tag, "METRICS");
    EXPECT_EQ(bytes, 12u);

    const char *bad[] = {
        "METRICS",                                // no size at all
        "METRICS ",                               // empty size
        "METRICS -1",                             // sign is not a size
        "METRICS 12x",                            // trailing garbage
        "METRICS 18446744073709551616",           // wraps uint64
        "METRICS 99999999999999999999999999",     // way past uint64
        "METRICS 16777217",                       // kMaxFrameBytes + 1
        "METRICS 12 13",                          // two sizes
    };
    for (const char *line : bad) {
        EXPECT_FALSE(serve::parsePayloadHeader(line, tag, bytes, error))
            << "'" << line << "'";
        EXPECT_FALSE(error.empty()) << "'" << line << "'";
    }
}

TEST(ServeProtocol, BusyErrIsOneStructuredLine)
{
    // The busy rejection is the one ERR clients key retry logic on:
    // it must keep its `ERR busy: ` prefix and stay a single line even
    // when the human-readable remainder is hostile (embedded newlines
    // would desynchronize the line protocol).
    const std::string framed = serve::frameErr(
        std::string(serve::kBusyPrefix) + "7 specs\nin flight\r\n");
    EXPECT_EQ(framed.rfind("ERR busy: ", 0), 0u) << framed;
    EXPECT_EQ(framed.find('\n'), framed.size() - 1) << framed;
    EXPECT_EQ(framed.find('\r'), std::string::npos) << framed;

    // No other rejection class may squat on the prefix by accident.
    EXPECT_EQ(serve::frameErr("parse failure: busy site").rfind(
                  "ERR busy: ", 0),
              std::string::npos);
}

TEST(ServeProtocol, RequestLineFuzzIsCrashFree)
{
    // Deterministic xorshift fuzz over request lines and frame
    // headers: arbitrary socket bytes must parse or reject with a
    // message — never throw, never reject silently.
    uint64_t state = 0x9e3779b97f4a7c15ull;
    auto next = [&state]() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        return state;
    };
    const char *verbs[] = {"PING",   "SUBMIT", "WAIT",  "RUN",
                           "STATS",  "METRICS", "SERIES", "HEALTH",
                           "TRACE",  "SHUTDOWN"};
    for (int round = 0; round < 2000; ++round) {
        std::string line;
        if (round % 3 == 0)
            line = verbs[next() % 10];  // real verb, fuzzed argument
        const size_t len = next() % 48;
        for (size_t i = 0; i < len; ++i) {
            // Bias toward protocol-meaningful bytes, keep raw ones.
            const uint64_t r = next();
            const char pool[] = " \t\r\n;=0123456789-xkMETRICS";
            line += (r & 1) ? pool[(r >> 1) % (sizeof(pool) - 1)]
                            : char(r >> 1 & 0xff);
        }
        serve::Request req;
        std::string error;
        if (!serve::parseRequest(line, req, error)) {
            EXPECT_FALSE(error.empty()) << "silent reject: '" << line
                                        << "'";
        }
        std::string tag;
        uint64_t bytes = 0;
        error.clear();
        if (!serve::parsePayloadHeader(line, tag, bytes, error)) {
            EXPECT_FALSE(error.empty()) << "silent reject: '" << line
                                        << "'";
        } else {
            EXPECT_LE(bytes, serve::kMaxFrameBytes);
        }
    }
}

TEST(ServeSpec, HostileBatchValuesAreStructuredErrors)
{
    // The batch key is the coalescing opt-in and arrives off the
    // socket: out-of-range, non-numeric, and overflowing values must
    // come back as parse errors from a live coalescing service — no
    // crash, no giant lane allocation.
    serve::ServiceConfig config;
    config.coalesceLanes = 2;
    config.coalesceWaitMs = 5.0;
    serve::ExperimentService service(config);

    const char *bad[] = {
        "batch=-1",      "batch=1025",
        "batch=abc",     "batch=4x",
        "batch=1e3",     "batch=99999999999999999999",
    };
    for (const char *key : bad) {
        serve::ExperimentService::Submitted sub =
            service.submit(serve::specTextFromArg(
                std::string("run=day; day=10; site=newark; "
                            "system=baseline; workload=profile; "
                            "physics_step=120; ") +
                key));
        EXPECT_FALSE(sub.ok) << key;
        EXPECT_FALSE(sub.error.empty()) << key;
    }
    EXPECT_EQ(service.stats().counter("serve.parse_errors", "").value(),
              6);

    // The in-range value still parks and runs through the window.
    serve::ExperimentService::Reply ok = service.run(
        serve::specTextFromArg("run=day; day=10; site=newark; "
                               "system=baseline; workload=profile; "
                               "physics_step=120; batch=2"));
    EXPECT_TRUE(ok.ok) << ok.error;
}

TEST(ServeSpec, HostileControllerKeysAnswerErrAndServerSurvives)
{
    // Controller tuning keys used to reach CoolingPredictor's fatal()
    // (horizon <= 0 ended the process), run for minutes (a huge
    // horizon), or silently simulate a meaningless band (nan / negative
    // width).  Each must now come back as an immediate ERR naming the
    // key from a live server, which keeps answering PING afterwards.
    TempDir dir;
    serve::ExperimentService service;
    serve::ServerConfig server_config;
    server_config.unixPath = (dir.path / "serve.sock").string();
    serve::LineServer server(service, server_config);
    server.start();
    serve::Client client = serve::Client::connectUnix(server_config.unixPath);

    const std::string base = "RUN run=day; day=10; site=newark; "
                             "system=allnd; workload=profile; "
                             "physics_step=120; ";
    const char *bad[][2] = {
        {"horizon=0", "horizon"},
        {"horizon=-3", "horizon"},
        {"horizon=721", "horizon"},
        {"horizon=100000000", "horizon"},
        {"band_width=nan", "band_width"},
        {"band_width=-5", "band_width"},
        {"band_width=0", "band_width"},
        {"band_width=inf", "band_width"},
        {"band_offset=nan", "band_offset"},
        {"band_offset=-inf", "band_offset"},
        {"switch_penalty=-1", "switch_penalty"},
        {"switch_penalty=nan", "switch_penalty"},
    };
    const auto t0 = std::chrono::steady_clock::now();
    for (const auto &[assignment, key] : bad) {
        serve::Client::Response r = client.request(base + assignment);
        EXPECT_FALSE(r.ok) << assignment;
        EXPECT_NE(r.status.find(key), std::string::npos)
            << assignment << " -> " << r.status;
        serve::Client::Response pong = client.request("PING");
        ASSERT_TRUE(pong.ok) << assignment << ": " << pong.error;
        EXPECT_EQ(pong.status, "PONG");
    }
    // Rejected at parse time: nothing was simulated.
    EXPECT_LT(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            t0)
                  .count(),
              10.0);
    EXPECT_EQ(service.stats().counter("serve.parse_errors", "").value(),
              int64_t(sizeof(bad) / sizeof(bad[0])));

    // The edges of each domain still parse.
    for (const char *ok : {"horizon=1", "horizon=720", "band_width=0.5",
                           "band_offset=-3", "switch_penalty=0"}) {
        EXPECT_NO_THROW(sim::parseSpec(serve::specTextFromArg(
            std::string("site=newark; system=allnd; ") + ok)))
            << ok;
    }
    server.stop();
}

TEST(PredictorInput, NonPositiveHorizonThrowsInsteadOfExiting)
{
    model::CoolingModel m;
    EXPECT_THROW(core::CoolingPredictor(&m, 0), std::invalid_argument);
    EXPECT_THROW(core::CoolingPredictor(&m, -3), std::invalid_argument);
    EXPECT_NO_THROW(core::CoolingPredictor(&m, 1));
}

TEST(ServeSpec, HostileRunShapeKeysAnswerErrOnBothEnginesAndStoreNothing)
{
    // Run-shape keys used to end the process (a physics step that does
    // not divide the sample interval reached util::fatal, and
    // int64_t(1e300) is undefined) or to simulate and store a
    // meaningless run (day 9999, a range from day -5 or from day
    // 2147483646).  On the scalar and the coalesced batched path alike,
    // each must answer ERR naming the key, store nothing, and leave the
    // server answering PING.
    TempDir dir;
    serve::ServiceConfig config;
    config.cacheDir = (dir.path / "store").string();
    config.coalesceLanes = 3;
    config.coalesceWaitMs = 1.0;
    serve::ExperimentService service(config);
    serve::ServerConfig server_config;
    server_config.unixPath = (dir.path / "serve.sock").string();
    serve::LineServer server(service, server_config);
    server.start();
    serve::Client client = serve::Client::connectUnix(server_config.unixPath);

    const std::string base = "RUN site=newark; system=baseline; "
                             "workload=profile; ";
    const char *bad[][2] = {
        {"run=day; day=10; physics_step=7", "physics_step"},
        {"run=day; day=10; physics_step=0.5", "physics_step"},
        {"run=day; day=10; physics_step=nan", "physics_step"},
        {"run=day; day=10; physics_step=inf", "physics_step"},
        {"run=day; day=10; physics_step=1e300", "physics_step"},
        {"run=day; day=10; physics_step=3601", "physics_step"},
        {"run=year; weeks=53; physics_step=120", "weeks"},
        {"run=year; weeks=100000; physics_step=120", "weeks"},
        {"run=day; day=9999; physics_step=120", "day"},
        {"run=day; day=365; physics_step=120", "day"},
        {"run=day; day=-1; physics_step=120", "day"},
        {"run=range; start_day=-5; end_day=2; physics_step=120",
         "start_day"},
        {"run=range; start_day=365; end_day=366; physics_step=120",
         "start_day"},
        {"run=range; start_day=2147483646; end_day=2147483647; "
         "physics_step=120",
         "start_day"},
        {"run=range; start_day=0; end_day=400; physics_step=120",
         "end_day"},
    };
    const size_t n_bad = sizeof(bad) / sizeof(bad[0]);
    for (const char *batch : {"batch=0", "batch=3"}) {
        for (const auto &[assignment, key] : bad) {
            const std::string line = base + assignment + "; " + batch;
            serve::Client::Response r = client.request(line);
            EXPECT_FALSE(r.ok) << line;
            EXPECT_NE(r.status.find(key), std::string::npos)
                << line << " -> " << r.status;
            serve::Client::Response pong = client.request("PING");
            ASSERT_TRUE(pong.ok) << line << ": " << pong.error;
            EXPECT_EQ(pong.status, "PONG");
        }
    }
    // Rejected by validateSpec at parse time, before dedup, parking or
    // the store: nothing reached an engine.
    EXPECT_EQ(service.stats().counter("serve.parse_errors", "").value(),
              int64_t(2 * n_bad));
    EXPECT_EQ(service.stats().counter("serve.run_failures", "").value(), 0);

    auto stored = [&] {
        int files = 0;
        for (const auto &e :
             fs::recursive_directory_iterator(dir.path / "store"))
            files += e.is_regular_file() ? 1 : 0;
        return files;
    };
    EXPECT_EQ(stored(), 0);

    // The domain edges still run and store.
    serve::Client::Response ok = client.request(
        base + "run=range; start_day=364; end_day=365; physics_step=3600");
    EXPECT_TRUE(ok.ok) << ok.error << " " << ok.status;
    EXPECT_EQ(stored(), 1);
    server.stop();
}

TEST(ServeSpec, HostileModelKeysAnswerErrAndStoreNothing)
{
    // Model-input doubles used to accept nan and inf (and a negative
    // forecast noise) and simulate them: max_temp = nan reported zero
    // violations, climate.annual_mean = nan 0 kWh of cooling, and the
    // store kept those results.  On the scalar and the coalesced
    // batched path alike, each must answer ERR naming the key at parse
    // time, store nothing, and leave the server answering PING.
    TempDir dir;
    serve::ServiceConfig config;
    config.cacheDir = (dir.path / "store").string();
    config.coalesceLanes = 3;
    config.coalesceWaitMs = 1.0;
    serve::ExperimentService service(config);
    serve::ServerConfig server_config;
    server_config.unixPath = (dir.path / "serve.sock").string();
    serve::LineServer server(service, server_config);
    server.start();
    serve::Client client = serve::Client::connectUnix(server_config.unixPath);

    const std::string base = "RUN run=day; day=10; site=newark; "
                             "system=baseline; workload=profile; "
                             "physics_step=120; ";
    const char *bad[][2] = {
        {"max_temp=nan", "max_temp"},
        {"max_temp=inf", "max_temp"},
        {"forecast_bias=inf", "forecast_bias"},
        {"forecast_bias=nan", "forecast_bias"},
        {"forecast_noise=-1", "forecast_noise"},
        {"forecast_noise=nan", "forecast_noise"},
        {"forecast_noise=inf", "forecast_noise"},
        {"sleep_decay=nan", "sleep_decay"},
        {"location.latitude=nan", "location.latitude"},
        {"location.longitude=-inf", "location.longitude"},
        {"climate.annual_mean=nan", "climate.annual_mean"},
        {"climate.seasonal_amplitude=inf", "climate.seasonal_amplitude"},
        {"climate.diurnal_amplitude=nan", "climate.diurnal_amplitude"},
        {"climate.synoptic_amplitude=-inf", "climate.synoptic_amplitude"},
        {"climate.dew_point_depression=nan", "climate.dew_point_depression"},
        {"climate.dew_point_variability=inf",
         "climate.dew_point_variability"},
        {"climate.seasonal_peak_day=nan", "climate.seasonal_peak_day"},
        {"climate.diurnal_peak_hour=inf", "climate.diurnal_peak_hour"},
        // Finite but meaningless: outside the key's domain.
        {"location.latitude=1e300", "location.latitude"},
        {"location.longitude=-1e300", "location.longitude"},
        {"location.latitude=1e6", "location.latitude"},
        {"max_temp=-1e300", "max_temp"},
        {"climate.seasonal_amplitude=1e300", "climate.seasonal_amplitude"},
        {"climate.diurnal_peak_hour=1e300", "climate.diurnal_peak_hour"},
        {"climate.seasonal_peak_day=-1e300", "climate.seasonal_peak_day"},
        {"band_width=1e300", "band_width"},
        {"switch_penalty=1e300", "switch_penalty"},
        {"sleep_decay=1e300", "sleep_decay"},
        {"sleep_decay=-1e300", "sleep_decay"},
    };
    const size_t n_bad = sizeof(bad) / sizeof(bad[0]);
    for (const char *batch : {"batch=0", "batch=3"}) {
        for (const auto &[assignment, key] : bad) {
            const std::string line = base + assignment + "; " + batch;
            serve::Client::Response r = client.request(line);
            EXPECT_FALSE(r.ok) << line;
            EXPECT_NE(r.status.find(key), std::string::npos)
                << line << " -> " << r.status;
            serve::Client::Response pong = client.request("PING");
            ASSERT_TRUE(pong.ok) << line << ": " << pong.error;
            EXPECT_EQ(pong.status, "PONG");
        }
    }
    EXPECT_EQ(service.stats().counter("serve.parse_errors", "").value(),
              int64_t(2 * n_bad));
    EXPECT_EQ(service.stats().counter("serve.runs", "").value(), 0);

    auto stored = [&] {
        int files = 0;
        if (fs::exists(dir.path / "store"))
            for (const auto &e :
                 fs::recursive_directory_iterator(dir.path / "store"))
                files += e.is_regular_file() ? 1 : 0;
        return files;
    };
    EXPECT_EQ(stored(), 0);

    // The domain edges still run and store.
    serve::Client::Response ok =
        client.request(base + "forecast_noise=0; max_temp=-40");
    EXPECT_TRUE(ok.ok) << ok.error << " " << ok.status;
    EXPECT_EQ(stored(), 1);
    server.stop();
}

TEST(ServeSpec, EveryNumericKeyAtItsDomainEdgesAnswersOkOrErrNamingIt)
{
    // Driven by the key table (through --list-keys' text): every numeric
    // key gets its domain edges, a value just outside each edge, +-0,
    // nan, +-inf and +-1e300, on a CoolAir system so the tuning keys
    // reach the controller.  Each must answer OK or an ERR naming the
    // key, an ERR must store nothing, a value outside the domain of a
    // key the run reads must be an ERR, and the server must still
    // answer PING.
    TempDir dir;
    serve::ServiceConfig config;
    config.cacheDir = (dir.path / "store").string();
    serve::ExperimentService service(config);
    serve::ServerConfig server_config;
    server_config.unixPath = (dir.path / "serve.sock").string();
    serve::LineServer server(service, server_config);
    server.start();
    serve::Client client = serve::Client::connectUnix(server_config.unixPath);

    auto stored = [&] {
        int files = 0;
        if (fs::exists(dir.path / "store"))
            for (const auto &e :
                 fs::recursive_directory_iterator(dir.path / "store"))
                files += e.is_regular_file() ? 1 : 0;
        return files;
    };
    auto text = [](double v) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        return std::string(buf);
    };

    const double inf = std::numeric_limits<double>::infinity();
    std::istringstream table(sim::formatSpecKeyTable());
    std::string line;
    std::getline(table, line);  // header
    int numeric_keys = 0;
    while (std::getline(table, line)) {
        std::istringstream cols(line);
        std::string key, def, domain;
        cols >> key >> def;
        std::getline(cols >> std::ws, domain);
        // An interval reads "in [lo, hi)" and the like.
        const size_t in = domain.find("in ");
        char lb = 0, rb = 0;
        double lo = -inf, hi = inf;
        const bool bounded =
            in != std::string::npos &&
            std::sscanf(domain.c_str() + in, "in %c%lf, %lf%c", &lb, &lo,
                        &hi, &rb) == 4;
        double unused = 0.0;
        if (!bounded && !util::parseDouble(def, unused))
            continue;  // not a number: an enum, a bool or text
        ++numeric_keys;

        std::vector<double> values = {0.0,  -0.0,   std::nan(""), inf,
                                      -inf, 1e300, -1e300};
        if (bounded) {
            for (double edge : {lo, hi}) {
                if (!std::isfinite(edge))
                    continue;
                values.push_back(edge);
                values.push_back(edge - 1.0);
                values.push_back(edge + 1.0);
            }
            if (std::isfinite(lo))
                values.push_back(std::nextafter(lo, -inf));
            if (std::isfinite(hi))
                values.push_back(std::nextafter(hi, inf));
        }
        // The run below is a single day: weeks, start_day and end_day
        // are not read, so they are not checked either.
        const bool checked = domain.find("(run = ") == std::string::npos ||
                             domain.find("(run = day)") != std::string::npos;

        for (double v : values) {
            const std::string assignment = key + "=" + text(v);
            const int before = stored();
            serve::Client::Response r = client.request(
                "RUN run=day; workload=steady; physics_step=3600; "
                "system=allnd; " +
                assignment);
            const bool inside = (lb == '[' ? v >= lo : v > lo) &&
                                (rb == ']' ? v <= hi : v < hi);
            if (r.ok) {
                EXPECT_TRUE(!bounded || !checked || inside) << assignment;
            } else {
                EXPECT_NE(r.status.find(key), std::string::npos)
                    << assignment << " -> " << r.status;
                EXPECT_EQ(stored(), before) << assignment;
            }
            serve::Client::Response pong = client.request("PING");
            ASSERT_TRUE(pong.ok) << assignment << ": " << pong.error;
            EXPECT_EQ(pong.status, "PONG");
        }
    }
    // Every double and integer key of the spec, and the in-domain
    // values really ran.
    EXPECT_GE(numeric_keys, 25);
    EXPECT_GT(service.stats().counter("serve.runs", "").value(), 0);
    server.stop();
}
