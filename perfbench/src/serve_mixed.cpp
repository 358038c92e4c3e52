/**
 * @file
 * serve-mixed: an in-process LineServer on a Unix socket over an
 * ExperimentService with a result store in the work directory, a hot
 * cache smaller than the hot+warm working set, and coalescing at 8
 * lanes.  The only workload that exercises serve, the store, the hot
 * cache, dedup and the coalescing scheduler.
 *
 * Load: an open loop (independent users, Poisson arrivals) at two fixed
 * offered rates, then a closed saturation phase.  benchThreads()
 * connections carry the requests; a request that finds every
 * connection busy waits, and its latency counts from when it was due.
 * The mix: hot repeats (served from the hot cache), warm repeats
 * (evicted, served from disk), cold scalar single-day specs, cold
 * same-shape batch=8 specs (coalesced), and cold duplicates sent twice
 * at once (dedup).
 *
 * Checks: every hot and warm answer is byte-identical to the answer the
 * spec got at warm-up, both copies of a duplicate agree, and a sample
 * of coalesced answers is within DESIGN.md §10 of the scalar oracle.
 */

#include <atomic>
#include <cmath>
#include <deque>
#include <filesystem>
#include <mutex>
#include <pthread.h>
#include <sched.h>
#include <sstream>
#include <thread>
#include <unistd.h>

#include "harness.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "sim/experiment.hpp"
#include "sim/result_cache.hpp"
#include "sim/spec_io.hpp"
#include "store/hot_cache.hpp"

namespace perfbench {

namespace serve = coolair::serve;
namespace sim = coolair::sim;

namespace {

// Service configuration (also recorded in perfbench/workloads.json).
constexpr size_t kHotCacheBytes = 96 << 10;
constexpr int kCoalesceLanes = 8;
constexpr double kCoalesceWaitMs = 5.0;

// Working sets and mix.
constexpr int kHotSpecs = 32;
constexpr int kWarmSpecs = 224;
constexpr double kLowRate = 100.0;  ///< offered req/s, phase 1
constexpr double kMidRate = 200.0;  ///< offered req/s, phase 2
constexpr double kSpecMinutes = 24 * 60 + 2 * 60;  ///< day + warm-up
/** Shares of --seconds for the low-rate, middle-rate and saturation
    phases.  The middle phase, which the end-to-end latencies come
    from, gets most: its p50 drifts with the host over seconds, and a
    longer phase averages more of that drift. */
constexpr double kPhaseShare[3] = {0.1, 0.7, 0.2};
/** Metric windows: latency quantiles are taken per third of the middle
    phase (by due time; at 30 s that leaves more than ten samples above
    each p99), saturation rates per 1 s of completions, and the medians
    over windows are reported. */
constexpr size_t kLatencyWindows = 3;
constexpr double kRateWindowS = 1.0;
constexpr auto kSpin = std::chrono::microseconds(200);
/** Requests each connection keeps in flight at saturation (enough
    same-shape batch specs in flight to fill coalesced batches). */
constexpr size_t kPipelineDepth = 64;

enum Kind
{
    Hot,
    Warm,
    ColdScalar,
    ColdBatch,
    ColdDup,
    KindCount
};

/** Mix shares in percent of draws, by Kind (a ColdDup draw sends two
    requests).  Repeats are 75% of draws, bench_serve's default
    COOLAIR_SERVE_HOT_PCT: 60 served from the hot cache and 15 that
    miss it and are served from disk.  The 25% cold draws keep the
    serve-path mix of scalar (15), coalescible batch=8 (8) and
    concurrent-duplicate (2) specs. */
constexpr int kMixPct[KindCount] = {60, 15, 15, 8, 2};

const char *const kSites[] = {"newark", "chad", "santiago", "iceland",
                              "singapore"};

std::string
dayLine(const char *site, const char *system, int day, uint64_t seed,
        int batch)
{
    std::string line = "run=day; day=" + std::to_string(day) + "; site=" +
                       site + "; system=" + system +
                       "; workload=profile; physics_step=120; seed=" +
                       std::to_string(seed);
    if (batch > 0)
        line += "; batch=" + std::to_string(batch);
    return line;
}

/** One scheduled request. */
struct Request
{
    double dueS = 0.0;  ///< offset from the phase start
    Kind kind = Hot;
    std::string line;
};

/** Seeded generator of the request stream. */
class Generator
{
  public:
    Generator(uint64_t seed, const std::vector<std::string> &hot,
              const std::vector<std::string> &warm)
        : _h(mix64(seed ^ 0x5e7eull)), _seed(seed), _hot(hot), _warm(warm)
    {
    }

    double uniform()
    {
        _h = mix64(_h);
        return double(_h >> 11) * (1.0 / 9007199254740992.0);
    }

    /** Append the next arrival(s) due at @p due (a dup is two). */
    void next(double due, std::vector<Request> &out)
    {
        const double u = uniform() * 100.0;
        int acc = 0, k = 0;
        for (; k < KindCount - 1; ++k) {
            acc += kMixPct[k];
            if (u < acc)
                break;
        }
        const uint64_t n = _cold++;
        const uint64_t cold_seed = 1000000 + _seed * 100003 + n;
        const char *site = kSites[n % 5];
        switch (Kind(k)) {
          case Hot:
            out.push_back({due, Hot, _hot[size_t(uniform() * _hot.size())]});
            return;
          case Warm:
            out.push_back(
                {due, Warm, _warm[size_t(uniform() * _warm.size())]});
            return;
          case ColdScalar:
            out.push_back({due, ColdScalar,
                           dayLine(site, n % 2 ? "allnd" : "baseline",
                                   int(n % 365), cold_seed, 0)});
            return;
          case ColdBatch:
            out.push_back({due, ColdBatch,
                           dayLine(site, "baseline", 200, cold_seed,
                                   kCoalesceLanes)});
            return;
          case ColdDup: {
            const std::string line =
                dayLine(site, "baseline", int(n % 365), cold_seed, 0);
            out.push_back({due, ColdDup, line});
            out.push_back({due, ColdDup, line});
            return;
          }
          case KindCount:
            break;
        }
    }

    /** Poisson arrivals at @p rate over [0, @p seconds). */
    std::vector<Request> openLoop(double rate, double seconds)
    {
        std::vector<Request> out;
        for (double t = -std::log(1.0 - uniform()) / rate; t < seconds;
             t += -std::log(1.0 - uniform()) / rate)
            next(t, out);
        return out;
    }

  private:
    uint64_t _h;
    uint64_t _seed;
    uint64_t _cold = 0;
    const std::vector<std::string> &_hot;
    const std::vector<std::string> &_warm;
};

/** One finished request. */
struct Done
{
    Kind kind = Hot;
    double dueS = 0.0;       ///< due offset from the phase start
    double endS = 0.0;       ///< completion offset from the phase start
    double latencyMs = 0.0;  ///< from due (open loop) or send (closed)
    double lateMs = -1.0;    ///< generator lateness; < 0 when backlogged
    bool ok = false;
    std::string line;
    std::string payload;
};

/** A running service + server in its own store directory. */
struct Stack
{
    explicit Stack(const std::string &dir) : dir(dir)
    {
        std::filesystem::remove_all(dir);
        std::filesystem::create_directories(dir);
        serve::ServiceConfig sc;
        sc.cacheDir = dir + "/store";
        sc.threads = benchThreads();
        sc.hotCacheBytes = kHotCacheBytes;
        sc.coalesceLanes = kCoalesceLanes;
        sc.coalesceWaitMs = kCoalesceWaitMs;
        service = std::make_unique<serve::ExperimentService>(sc);
        serve::ServerConfig cfg;
        cfg.unixPath = dir + "/serve.sock";
        server = std::make_unique<serve::LineServer>(*service, cfg);
        server->start();
    }

    ~Stack()
    {
        server->stop();
        server.reset();
        service.reset();
        std::filesystem::remove_all(dir);
    }

    Stack(const Stack &) = delete;
    Stack &operator=(const Stack &) = delete;

    std::string socket() const { return dir + "/serve.sock"; }

    std::string dir;
    std::unique_ptr<serve::ExperimentService> service;
    std::unique_ptr<serve::LineServer> server;
};

/**
 * Keeps every CPU out of its idle state while alive: one SCHED_IDLE
 * spinner per CPU, which any runnable thread of the process preempts.
 * Used only in the open-loop phases, where the CPUs are mostly idle
 * between requests.  On a shared VM, waking a halted virtual CPU takes
 * from tens of microseconds to most of a millisecond depending on the
 * load of the host, not on the server: without the spinners the hot
 * answers that p50 falls on read 0.28-0.80 ms on five seeds (quartile
 * spread 1.0), with them 0.145-0.159 ms (spread 0.07).  A thread
 * hand-off still costs a futex wake and a context switch; only the
 * virtual CPU's halt and resume is taken out.
 */
class IdlePoll
{
  public:
    IdlePoll()
    {
        const unsigned n = std::max(1u, std::thread::hardware_concurrency());
        for (unsigned i = 0; i < n; ++i)
            _threads.emplace_back([this] {
                // A spinner that cannot drop to SCHED_IDLE would compete
                // with the threads it is meant to yield to: skip it.
                sched_param param{};
                if (pthread_setschedparam(pthread_self(), SCHED_IDLE,
                                          &param) != 0)
                    return;
                while (!_stop.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
                    __builtin_ia32_pause();
#endif
                }
            });
    }

    ~IdlePoll()
    {
        _stop = true;
        for (std::thread &t : _threads)
            t.join();
    }

    IdlePoll(const IdlePoll &) = delete;
    IdlePoll &operator=(const IdlePoll &) = delete;

  private:
    std::atomic<bool> _stop{false};
    std::vector<std::thread> _threads;
};

/**
 * The output checks, run on each answer as it arrives so the client
 * keeps no payload bytes (peak RSS stays the service's).  Thread-safe.
 */
class Checker
{
  public:
    /** @p first: each hot and warm spec's warm-up answer. */
    explicit Checker(const std::map<std::string, std::string> &first)
        : _first(first)
    {
    }

    /** Check @p d, then drop its line and payload. */
    void check(Done &d)
    {
        std::lock_guard<std::mutex> lock(_mutex);
        bool good = d.ok;
        if (good && (d.kind == Hot || d.kind == Warm))
            good = _first.at(d.line) == d.payload;
        if (good && d.kind == ColdDup) {
            auto [it, inserted] = _coldFirst.emplace(d.line, d.payload);
            good = inserted || it->second == d.payload;
        }
        if (good && d.kind == ColdBatch && coalesced.size() < 16)
            coalesced.push_back(d);
        if (!good) {
            ++failed;
            errors.push_back("wrong or failed answer: " + d.line);
        }
        std::string().swap(d.payload);
        std::string().swap(d.line);
    }

    // Read after the phases, once every connection thread has joined.
    int64_t failed = 0;
    std::vector<std::string> errors;
    std::vector<Done> coalesced;  ///< a sample of coalesced answers

  private:
    std::mutex _mutex;
    const std::map<std::string, std::string> &_first;
    std::map<std::string, std::string> _coldFirst;
};

/** Run @p body(client, connection index) on @p conns connection
    threads and wait for all of them. */
template <typename Body>
void
onConnections(const std::string &socket, int conns, Body body)
{
    std::vector<std::thread> threads;
    for (int c = 0; c < conns; ++c)
        threads.emplace_back([&, c] {
            serve::Client client = serve::Client::connectUnix(socket);
            body(client, size_t(c));
        });
    for (std::thread &t : threads)
        t.join();
}

/**
 * Open loop: send each of @p reqs with RUN no earlier than its due
 * time (offset from @p t0) and time it from then.  A request that finds
 * every connection busy waits for one.  Requests not sent by
 * @p deadline are dropped and counted in @p unsent.
 */
std::vector<Done>
openLoop(const std::string &socket, const std::vector<Request> &reqs,
         Clock::time_point t0, Clock::time_point deadline, int conns,
         Checker &checker, size_t &unsent)
{
    std::atomic<size_t> next{0};
    const IdlePoll idle_poll;
    std::vector<std::vector<Done>> per(static_cast<size_t>(conns));
    onConnections(socket, conns, [&](serve::Client &client, size_t c) {
        for (size_t i = next.fetch_add(1); i < reqs.size();
             i = next.fetch_add(1)) {
            const Request &r = reqs[i];
            const Clock::time_point due =
                t0 + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(r.dueS));
            Clock::time_point sent = Clock::now();
            if (sent >= deadline)
                break;
            Done d;
            d.kind = r.kind;
            d.line = r.line;
            d.dueS = r.dueS;
            if (sent < due) {
                // Sleep to just short of the due time, then spin: a
                // timer wake-up alone runs up to a millisecond late on
                // a busy host.
                std::this_thread::sleep_until(due - kSpin);
                while ((sent = Clock::now()) < due) {
                }
                d.lateMs =
                    std::chrono::duration<double, std::milli>(sent - due)
                        .count();
            }
            const serve::Client::Response resp =
                client.request("RUN " + r.line);
            const Clock::time_point end = Clock::now();
            d.latencyMs =
                std::chrono::duration<double, std::milli>(end - due).count();
            d.endS = std::chrono::duration<double>(end - t0).count();
            d.ok = resp.ok;
            d.payload = resp.payload;
            checker.check(d);
            per[c].push_back(std::move(d));
        }
    });
    std::vector<Done> all;
    for (std::vector<Done> &v : per)
        for (Done &d : v)
            all.push_back(std::move(d));
    unsent = reqs.size() - all.size();
    return all;
}

/**
 * Closed loop at saturation: each connection keeps kPipelineDepth
 * requests in flight (SUBMIT), WAITs for the oldest, and SUBMITs the
 * next, until @p deadline or until @p source(request) returns false;
 * then it waits for the rest.  Each finished request, its end being
 * when its WAIT returned, goes to @p sink.  Calls to @p source and to
 * @p sink are serialized.
 */
template <typename Source, typename Sink>
void
saturate(const std::string &socket, Source source, Clock::time_point t0,
         Clock::time_point deadline, int conns, Sink sink)
{
    std::mutex source_mutex, sink_mutex;
    auto take = [&](Request &r) {
        std::lock_guard<std::mutex> lock(source_mutex);
        return source(r);
    };
    onConnections(socket, conns, [&](serve::Client &client, size_t) {
        std::deque<std::pair<Request, uint64_t>> inflight;  // + ticket
        Request r;
        for (;;) {
            while (inflight.size() < kPipelineDepth &&
                   Clock::now() < deadline && take(r)) {
                uint64_t ticket = 0;
                if (!client.submit(r.line, ticket).ok)
                    ticket = 0;
                inflight.emplace_back(std::move(r), ticket);
            }
            if (inflight.empty())
                break;
            Done d;
            d.kind = inflight.front().first.kind;
            d.line = std::move(inflight.front().first.line);
            const uint64_t ticket = inflight.front().second;
            inflight.pop_front();
            if (ticket != 0) {
                const serve::Client::Response resp =
                    client.request("WAIT " + std::to_string(ticket));
                d.ok = resp.ok;
                d.payload = resp.payload;
            }
            d.endS = secondsSince(t0);
            std::lock_guard<std::mutex> lock(sink_mutex);
            sink(d);
        }
    });
}

using Stats = std::map<std::string, double>;

/** Counters and histogram ::count/::mean values from STATS text. */
Stats
parseStats(const std::string &text)
{
    Stats out;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream ls(line);
        std::string name;
        double value = 0.0;
        if (ls >> name >> value)
            out[name] = value;
    }
    return out;
}

double
statOf(const Stats &s, const std::string &name)
{
    auto it = s.find(name);
    return it == s.end() ? 0.0 : it->second;
}

/** Mean of histogram @p name over the samples recorded between two
    snapshots (0 when none were). */
double
histMeanBetween(const Stats &a, const Stats &b, const std::string &name)
{
    const double na = statOf(a, name + "::count");
    const double nb = statOf(b, name + "::count");
    if (nb <= na)
        return 0.0;
    return (statOf(b, name + "::mean") * nb -
            statOf(a, name + "::mean") * na) /
           (nb - na);
}

double
meanOf(const std::vector<double> &v)
{
    double s = 0.0;
    for (double x : v)
        s += x;
    return v.empty() ? 0.0 : s / double(v.size());
}

} // anonymous namespace

Outcome
runServeMixed(const Options &opt)
{
    Outcome o;
    const int conns = benchThreads();
    std::vector<std::string> hot, warm;
    for (int i = 0; i < kHotSpecs + kWarmSpecs; ++i) {
        const std::string line =
            dayLine(kSites[i % 5], i % 2 ? "allnd" : "baseline",
                    int((i * 37) % 365), 7, 0);
        (i < kHotSpecs ? hot : warm).push_back(line);
    }

    // Setup: the learning campaign, the utilization profile, service and
    // server start, and the store warm-up (every hot and warm spec run
    // once), in a fresh directory; repeated before the phases and after
    // them, and setup_s is the median.  The last stack before the
    // phases serves the measurement.  Each setup ends with a run of the
    // reference kernel (off the setup clock); the *_ref_ms metrics are
    // scaled by the median of those runs.
    std::vector<double> setup_s, learn_s, kernel_ms;
    std::map<std::string, std::string> first;  ///< warm-up answers
    std::unique_ptr<Stack> stack;
    auto setupOnce = [&] {
        stack.reset();
        const Clock::time_point t0 = Clock::now();
        learn_s.push_back(learningCampaign());
        facebookProfileBuild();
        stack = std::make_unique<Stack>(opt.workDir + "/serve-" +
                                        std::to_string(::getpid()));
        size_t next = 0;
        std::vector<Done> done;
        saturate(
            stack->socket(),
            [&](Request &req) {
                if (next >= hot.size() + warm.size())
                    return false;
                req = next < hot.size()
                          ? Request{0.0, Hot, hot[next]}
                          : Request{0.0, Warm, warm[next - hot.size()]};
                ++next;
                return true;
            },
            Clock::now(), Clock::time_point::max(), conns,
            [&](Done &d) { done.push_back(std::move(d)); });
        setup_s.push_back(secondsSince(t0));
        kernel_ms.push_back(referenceKernelMs());
        for (const Done &d : done) {
            if (!d.ok) {
                o.fail("warm-up request failed: " + d.line);
                continue;
            }
            auto [it, inserted] = first.emplace(d.line, d.payload);
            if (!inserted && it->second != d.payload)
                o.fail("warm-up answers differ across setups: " + d.line);
        }
    };
    for (int r = 0; r < kSetupRepeats; ++r)
        setupOnce();
    serve::ExperimentService &service = *stack->service;
    const Stats stats0 =
        parseStats(service.statsText());

    Generator gen(opt.seed, hot, warm);
    const double low_s = kPhaseShare[0] * opt.seconds,
                 mid_s = kPhaseShare[1] * opt.seconds,
                 sat_s = kPhaseShare[2] * opt.seconds;
    Checker checker(first);
    auto account = [&](std::vector<Done> done, size_t unsent) {
        o.attempted += int64_t(done.size() + unsent);
        o.failed += int64_t(unsent);
        return done;
    };

    // Phase 1 and 2: open loop at the two fixed rates.
    SpanBuffer spans;
    int64_t mid_start_ns = 0;  ///< start of the latest open phase
    auto openPhase = [&](double rate, double seconds, size_t &unsent) {
        const std::vector<Request> reqs = gen.openLoop(rate, seconds);
        const Clock::time_point t0 = Clock::now();
        mid_start_ns = nowNs();
        return openLoop(stack->socket(), reqs, t0,
                        t0 + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(seconds + 2.0)),
                        conns, checker, unsent);
    };
    size_t unsent = 0;
    const std::vector<Done> low = account(openPhase(kLowRate, low_s, unsent), unsent);
    const Stats stats_mid0 =
        parseStats(service.statsText());
    std::vector<Done> mid = account(openPhase(kMidRate, mid_s, unsent), unsent);
    const size_t mid_unsent = unsent;
    const Stats stats_mid1 =
        parseStats(service.statsText());

    // Phase 3: closed-loop saturation, requests generated as they are
    // sent; completions are counted per window of kRateWindowS.
    const size_t sat_windows =
        std::max<size_t>(1, size_t(sat_s / kRateWindowS));
    std::vector<double> done_w(sat_windows), cold_w(sat_windows);
    std::vector<Request> pending;  ///< the rest of a duplicate pair
    int64_t sat_done = 0;
    const Clock::time_point sat0 = Clock::now();
    const int64_t sat_start_ns = nowNs();
    saturate(
        stack->socket(),
        [&](Request &req) {
            if (pending.empty())
                gen.next(0.0, pending);
            req = std::move(pending.back());
            pending.pop_back();
            return true;
        },
        sat0,
        sat0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(sat_s)),
        conns,
        [&](Done &d) {
            checker.check(d);
            ++sat_done;
            const size_t w = size_t(d.endS / kRateWindowS);
            if (w >= sat_windows)
                return;
            ++done_w[w];
            if (d.kind == ColdScalar || d.kind == ColdBatch ||
                d.kind == ColdDup)
                cold_w[w] += kSpecMinutes;
        });
    o.attempted += sat_done;
    o.failed += checker.failed;
    for (const std::string &e : checker.errors)
        o.fail(e);
    const Stats stats1 =
        parseStats(service.statsText());

    // Latency at the middle rate, from due time, per window; requests
    // never sent count with the time they had waited when the phase
    // ended.
    const size_t mid_windows = kLatencyWindows;
    const double window_len = mid_s / double(kLatencyWindows);
    std::vector<std::vector<double>> lat_w(mid_windows);
    std::vector<double> hot_lat, late, low_lat;
    for (const Done &d : mid) {
        const size_t w = size_t(d.dueS / window_len);
        if (w < mid_windows)
            lat_w[w].push_back(d.latencyMs);
        if (d.kind == Hot || d.kind == Warm)
            hot_lat.push_back(d.latencyMs);
        if (d.lateMs >= 0)
            late.push_back(d.lateMs);
    }
    if (mid_unsent > 0)
        lat_w.back().insert(lat_w.back().end(), mid_unsent,
                            (mid_s + 2.0) * 1e3);
    for (const Done &d : low)
        low_lat.push_back(d.latencyMs);
    auto windowMedian = [](const std::vector<std::vector<double>> &w,
                           double q) {
        std::vector<double> per;
        for (const std::vector<double> &v : w)
            if (!v.empty())
                per.push_back(quantile(v, q));
        return median(per);
    };
    // Saturation throughput per window of completions.
    const double window_s = std::min(kRateWindowS, sat_s);
    for (size_t w = 0; w < sat_windows; ++w) {
        done_w[w] /= window_s;
        cold_w[w] /= window_s;
    }

    std::string phases;
    for (double share : kPhaseShare) {
        char buf[16];
        std::snprintf(buf, sizeof buf, "%g", share);
        phases += (phases.empty() ? "" : ", ") + std::string(buf);
    }
    o.shape = "{\"hot_specs\": " + std::to_string(kHotSpecs) +
              ", \"warm_specs\": " + std::to_string(kWarmSpecs) +
              ", \"mix_pct\": {\"hot\": " + std::to_string(kMixPct[Hot]) +
              ", \"warm\": " + std::to_string(kMixPct[Warm]) +
              ", \"cold_scalar\": " + std::to_string(kMixPct[ColdScalar]) +
              ", \"cold_batch\": " + std::to_string(kMixPct[ColdBatch]) +
              ", \"cold_dup\": " + std::to_string(kMixPct[ColdDup]) +
              "}, \"offered_rps\": [" + std::to_string(int(kLowRate)) +
              ", " + std::to_string(int(kMidRate)) +
              "], \"phase_share\": [" + phases + "]" +
              ", \"hot_cache_bytes\": " + std::to_string(kHotCacheBytes) +
              ", \"coalesce_lanes\": " + std::to_string(kCoalesceLanes) +
              ", \"coalesce_wait_ms\": " +
              std::to_string(int(kCoalesceWaitMs)) +
              ", \"saturation_in_flight_per_connection\": " +
              std::to_string(kPipelineDepth) +
              ", \"idle_spinners\": \"open-loop phases\"}";
    o.set("sim_min_per_s", median(cold_w), "sim-min/s");
    const double p50_ms = windowMedian(lat_w, 0.50),
                 p99_ms = windowMedian(lat_w, 0.99);
    o.set("latency_p50_ms", p50_ms, "ms");
    o.set("latency_p99_ms", p99_ms, "ms");
    o.set("max_rate_rps", median(done_w), "req/s");
    o.set("peak_rss_mb", peakRssMb(), "MiB");
    o.notes.push_back(
        "serve-mixed: low " + std::to_string(low.size()) + " @ " +
        std::to_string(int(kLowRate)) + "/s, mid " +
        std::to_string(mid.size()) + " @ " + std::to_string(int(kMidRate)) +
        "/s (unsent " + std::to_string(mid_unsent) + "), saturation " +
        std::to_string(sat_done) + " on " + std::to_string(conns) +
        " connections");

    // Coalesced answers against the scalar oracle (off the clock).
    double err_max = 0.0;
    for (const Done &d : checker.coalesced) {
        sim::ExperimentSpec spec =
            sim::parseSpec(serve::specTextFromArg(d.line));
        spec.batch = 0;
        bool within = false;
        err_max = std::max(
            err_max, payloadDeviation(d.payload,
                                      sim::formatResult(sim::runExperiment(spec)),
                                      within));
        if (!within) {
            ++o.failed;
            o.fail("coalesced answer outside the DESIGN.md §10 contract: " +
                   d.line);
        }
    }

    if (opt.trace) {
        auto delta = [&](const char *name) {
            return statOf(stats1, name) - statOf(stats0, name);
        };
        const double hot_hits = delta("serve.hot_hits");
        const double hot_misses = delta("serve.hot_misses");
        o.set("serve.hot_hit_ratio",
              hot_hits + hot_misses > 0 ? hot_hits / (hot_hits + hot_misses)
                                        : 0.0,
              "ratio");
        o.set("serve.store_hits", delta("serve.store_hits"), "count");
        o.set("serve.dedup_hits", delta("serve.dedup_hits"), "count");
        o.set("serve.runs", delta("serve.runs"), "count");
        o.set("serve.coalesced", delta("serve.coalesced"), "count");
        o.set("serve.rejected_busy", delta("serve.rejected_busy"), "count");
        o.set("serve.lane_fill_mean",
              histMeanBetween(stats0, stats1, "serve.lane_fill"), "lanes");
        // Service-side submit-to-done time over the middle phase.
        o.set("serve.wait.self_ms",
              histMeanBetween(stats_mid0, stats_mid1,
                              "serve.latency_seconds") * 1e3,
              "ms");
        o.set("serve.hot_latency_p99_ms", quantile(hot_lat, 0.99), "ms");
        o.set("serve.low_rate_p99_ms", quantile(low_lat, 0.99), "ms");
        o.set("gen.late_ms_p99", quantile(late, 0.99), "ms");
        o.set("sim.batch.err_max", err_max, "ratio");

        // Direct calls into serve, sim and store on the idle stack.
        constexpr int kProbes = 400;
        std::vector<double> rtt_us, submit_us, parse_us, id_us, hot_us,
            disk_us;
        const Stats before = parseStats(service.statsText());
        serve::Client client = serve::Client::connectUnix(stack->socket());
        for (int i = 0; i < kProbes; ++i) {
            const std::string &line = hot[size_t(i) % hot.size()];
            const int64_t t0 = nowNs();
            const serve::Client::Response r = client.request("RUN " + line);
            rtt_us.push_back(double(nowNs() - t0) / 1e3);
            if (!r.ok || r.payload != first.at(line))
                o.fail("probe answer differs: " + line);
        }
        const double service_us =
            histMeanBetween(before, parseStats(service.statsText()),
                            "serve.latency_seconds") * 1e6;
        o.set("serve.transport_us", meanOf(rtt_us) - service_us, "us");

        coolair::store::HotResultCache probe_cache(kHotCacheBytes);
        for (int i = 0; i < kProbes; ++i) {
            const std::string &line = hot[size_t(i) % hot.size()];
            const std::string text = serve::specTextFromArg(line);
            int64_t t0 = nowNs();
            const serve::ExperimentService::Submitted sub =
                service.submit(text);
            submit_us.push_back(double(nowNs() - t0) / 1e3);
            if (!sub.ok || service.wait(sub.ticket).payload != first.at(line))
                o.fail("in-process answer differs: " + line);
            t0 = nowNs();
            const sim::ExperimentSpec spec = sim::parseSpec(text);
            parse_us.push_back(double(nowNs() - t0) / 1e3);
            t0 = nowNs();
            const std::string id = sim::resultCacheId(spec);
            id_us.push_back(double(nowNs() - t0) / 1e3);
            probe_cache.insert(id, first.at(line));
            std::string payload;
            t0 = nowNs();
            probe_cache.lookup(id, payload);
            hot_us.push_back(double(nowNs() - t0) / 1e3);
            const std::string &wline = warm[size_t(i) % warm.size()];
            const std::string wid = sim::resultCacheId(
                sim::parseSpec(serve::specTextFromArg(wline)));
            t0 = nowNs();
            const bool hit = service.store()->lookup(wid, payload);
            disk_us.push_back(double(nowNs() - t0) / 1e3);
            if (!hit)
                o.fail("warm spec missing from the store: " + wline);
        }
        o.set("serve.submit.self_us", median(submit_us), "us");
        o.set("sim.parse_spec.self_us", median(parse_us), "us");
        o.set("sim.result_id.self_us", median(id_us), "us");
        o.set("store.hot.lookup_us", median(hot_us), "us");
        o.set("store.disk.lookup_us", median(disk_us), "us");

        // Every middle-rate request from its due time, one track per
        // class, and the saturation phase.
        const char *const names[KindCount] = {"hot", "warm", "cold_scalar",
                                              "cold_batch", "cold_dup"};
        for (const Done &d : mid)
            spans.add({names[d.kind],
                       mid_start_ns + int64_t(d.dueS * 1e9),
                       int64_t(d.latencyMs * 1e6), 1 + int(d.kind), {}});
        spans.add({"saturation", sat_start_ns, int64_t(sat_s * 1e9), 0,
                   {{"requests", double(sat_done)}}});
        const std::string path = opt.workDir + "/trace-serve-mixed.json";
        if (!spans.writeChromeTrace(path))
            o.fail("cannot write " + path);
    }

    // The measured stack is done with; the setups after the phases
    // sample the host at the other end of the run.
    for (int r = 0; r < kSetupRepeats; ++r)
        setupOnce();
    o.set("setup_s", median(setup_s), "s");
    o.set("host.ref_kernel_ms", median(kernel_ms), "ms");
    o.set("latency_p50_ref_ms", atReferenceSpeed(p50_ms, median(kernel_ms)),
          "ref-ms");
    o.set("latency_p99_ref_ms", atReferenceSpeed(p99_ms, median(kernel_ms)),
          "ref-ms");
    if (opt.trace)
        o.set("model.learn_s", median(learn_s), "s");
    return o;
}

} // namespace perfbench
