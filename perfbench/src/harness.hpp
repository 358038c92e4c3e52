#ifndef COOLAIR_PERFBENCH_HARNESS_HPP
#define COOLAIR_PERFBENCH_HARNESS_HPP

/**
 * @file
 * Shared plumbing of the CoolAir benchmark harness: options, the
 * result record every workload fills, timing and quantile helpers,
 * output checks, and the traced run's layer clock and span buffer.
 *
 * The harness only calls the library's public API.  Per-layer time is
 * taken around those calls (and inside the forwarding decorators of
 * layers.hpp); nothing under src/ is instrumented for it.
 */

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** Command-line options shared by every workload. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Directory for scratch files (result stores, sockets, traces);
        always inside the checkout. */
    std::string workDir = ".bench_build/run";
    /** Reference file of year-oracle digests. */
    std::string digestPath = "perfbench/reference/year_oracle.digests";
};

/** One reported metric. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};

/** What a workload run reports. */
struct Outcome
{
    bool correct = true;
    int64_t attempted = 0;
    int64_t failed = 0;
    std::map<std::string, Metric> metrics;
    /** Human-readable lines printed before the result line. */
    std::vector<std::string> notes;
    /** The generated shape as a JSON object; printed in the context
        line and kept equal to perfbench/workloads.json by the tests. */
    std::string shape = "{}";

    void set(const std::string &name, double value, const char *unit)
    {
        metrics[name] = {value, unit};
    }
    /** Record a failed output check (fails the run). */
    void fail(const std::string &why);
};

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Interpolated quantile of @p v (copied and sorted); 0 when empty. */
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double> &v) { return quantile(v, 0.5); }

/** Peak resident set size of this process [MiB]. */
double peakRssMb();

/** Worker, client-thread and connection count: nproc, capped at 4 so
    the workload shape is the same on larger hosts. */
int benchThreads();

/** 64-bit FNV-1a digest of @p bytes as 16 hex digits. */
std::string digestHex(const std::string &bytes);

/**
 * Largest relative deviation between two formatResult payloads, field
 * by field (|a-b| / max(|a|,|b|), 0 where both are 0).  Sets
 * @p within to the DESIGN.md §10 contract: every field within 2%
 * relative or 0.02 absolute, same keys in the same order.
 */
double payloadDeviation(const std::string &a, const std::string &b,
                        bool &within);

/**
 * Wall time of one pass of the reference kernel [ms]: a fixed loop of
 * floating-point, branch and gather work over a 1 MiB working set,
 * written in the harness so no change to the library moves it.  It
 * samples the host's single-thread speed at that moment.
 */
double referenceKernelMs();

/** Kernel time of the reference speed the *_ref_ms metrics are
    scaled to [ms]. */
inline constexpr double kReferenceKernelMs = 20.0;

/** @p ms measured while the reference kernel took @p kernelMs, scaled
    to a host on which it takes kReferenceKernelMs. */
inline double
atReferenceSpeed(double ms, double kernelMs)
{
    return ms * kReferenceKernelMs / kernelMs;
}

/** Setup repetitions per run; setup_s is their median. */
inline constexpr int kSetupRepeats = 5;

/** splitmix64: the harness's only source of seeded input variation. */
uint64_t mix64(uint64_t x);

/** Run the learning campaign behind sim::sharedBundle() once more (a
    fresh CoolingLearner::learn on the abrupt Parasol plant), then make
    sure the process-wide shared state is warm.  Returns its seconds. */
double learningCampaign();

/** Build the FacebookProfile utilization profile behind
    sim::sharedFacebookProfile() once more (trace generation and
    UtilizationProfile::fromTrace), so every setup repeat pays for it,
    not only the first.  Returns its seconds. */
double facebookProfileBuild();

// ---------------------------------------------------------------------------
// Traced runs: self-time layer clock and a span buffer.
// ---------------------------------------------------------------------------

/** Layers timed around calls on the year-oracle's engine thread. */
enum class Layer
{
    EnvSample,     ///< WeatherProvider::sample/temperature
    WorkloadStep,  ///< WorkloadModel::step
    WorkloadLoad,  ///< WorkloadModel::podLoad(Into)/status/applyPlan
    CoreControl,   ///< Controller::control
    EngineRun,     ///< Engine::runYearWeekly (the root)
    Count
};

struct LayerTotals
{
    int64_t calls = 0;
    int64_t selfNs = 0;
    int64_t totalNs = 0;
};

/** Per-layer totals of the calling thread. */
LayerTotals &layerTotals(Layer layer);

/**
 * Scoped timer of one call into a layer.  On exit the call's duration
 * is charged to the layer's total, minus time its nested timed calls
 * took, to its self time, and to the enclosing timer's child time.
 */
class LayerScope
{
  public:
    explicit LayerScope(Layer layer);
    ~LayerScope();
    LayerScope(const LayerScope &) = delete;
    LayerScope &operator=(const LayerScope &) = delete;

  private:
    Layer _layer;
    LayerScope *_parent;
    int64_t _startNs;
    int64_t _childNs = 0;
};

/** Monotonic nanoseconds. */
int64_t nowNs();

/** One completed span for the Chrome-trace export. */
struct Span
{
    std::string name;
    int64_t startNs = 0;
    int64_t durNs = 0;
    int tid = 0;
    std::vector<std::pair<std::string, double>> args;
};

/** In-memory spans of one run, written once at the end. */
class SpanBuffer
{
  public:
    void add(Span span);
    /** Write Chrome trace-event JSON; false on IO failure. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    std::vector<Span> _spans;
};

// Workloads (one translation unit each).
Outcome runYearOracle(const Options &opt);
Outcome runSweepBatched(const Options &opt);
Outcome runServeMixed(const Options &opt);

/** Write the year-oracle reference digests for the whole seed pool. */
int recordYearOracleDigests(const Options &opt);

} // namespace perfbench

#endif // COOLAIR_PERFBENCH_HARNESS_HPP
