#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#include "model/learner.hpp"
#include "sim/experiment.hpp"
#include "workload/profile.hpp"
#include "workload/trace_gen.hpp"

namespace perfbench {

void
Outcome::fail(const std::string &why)
{
    correct = false;
    notes.push_back("CHECK FAILED: " + why);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = q * double(v.size() - 1);
    const size_t lo = size_t(rank);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (rank - double(lo)) * (v[hi] - v[lo]);
}

double
peakRssMb()
{
    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

int
benchThreads()
{
    const unsigned n = std::thread::hardware_concurrency();
    return int(std::clamp(n, 1u, 4u));
}

std::string
digestHex(const std::string &bytes)
{
    uint64_t h = 1469598103934665603ull;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 1099511628211ull;
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", (unsigned long long)h);
    return buf;
}

double
payloadDeviation(const std::string &a, const std::string &b, bool &within)
{
    within = true;
    double worst = 0.0;
    std::istringstream ia(a), ib(b);
    std::string la, lb;
    for (;;) {
        const bool ga = bool(std::getline(ia, la));
        const bool gb = bool(std::getline(ib, lb));
        if (ga != gb) {
            within = false;
            return worst;
        }
        if (!ga)
            return worst;
        const size_t ea = la.find('='), eb = lb.find('=');
        if (ea == std::string::npos || eb == std::string::npos ||
            la.substr(0, ea) != lb.substr(0, eb)) {
            if (la != lb)
                within = false;
            continue;
        }
        char *end = nullptr;
        const double va = std::strtod(la.c_str() + ea + 1, &end);
        const double vb = std::strtod(lb.c_str() + eb + 1, &end);
        const double scale = std::max(std::fabs(va), std::fabs(vb));
        const double diff = std::fabs(va - vb);
        if (scale > 0.0)
            worst = std::max(worst, diff / scale);
        if (diff > std::max(0.02, 0.02 * scale))
            within = false;
    }
}

uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

double
learningCampaign()
{
    namespace cl = coolair;
    const Clock::time_point t0 = Clock::now();
    const cl::model::LearnedBundle bundle = cl::model::CoolingLearner::learn(
        cl::plant::PlantConfig::parasol(), cl::cooling::RegimeMenu::parasol(),
        cl::model::LearnerConfig{});
    (void)bundle;
    cl::sim::sharedBundle();
    cl::sim::sharedFacebookProfile();
    return secondsSince(t0);
}

double
facebookProfileBuild()
{
    namespace wl = coolair::workload;
    const Clock::time_point t0 = Clock::now();
    const wl::UtilizationProfile profile = wl::UtilizationProfile::fromTrace(
        wl::facebookTrace({}), wl::ClusterConfig{});
    (void)profile;
    return secondsSince(t0);
}

double
referenceKernelMs()
{
    constexpr size_t kValues = size_t(1) << 16, kGathers = size_t(1) << 14;
    static const struct Data
    {
        std::vector<double> a;
        std::vector<uint32_t> idx;
        Data() : a(kValues), idx(kGathers)
        {
            uint64_t h = 1;
            for (double &x : a) {
                h = mix64(h);
                x = double(h % 1000) / 1000.0;
            }
            for (uint32_t &i : idx) {
                h = mix64(h);
                i = uint32_t(h % kValues);
            }
        }
    } data;
    // Every run starts from the same state, so it does the same work.
    static std::vector<double> b;
    b.assign(kValues, 0.5);
    static volatile double sink = 0.0;

    const Clock::time_point t0 = Clock::now();
    double acc = 0.0;
    for (int rep = 0; rep < 24; ++rep) {
        for (size_t i = 0; i < kValues; ++i) {
            double x = data.a[i] * 0.999 + b[i] * 0.001;
            x = x > 0.5 ? std::sqrt(x) + std::exp(-x) : x * x + 0.1;
            b[i] = x;
            acc += x;
        }
        for (size_t j = 0; j < kGathers; ++j)
            acc += data.a[data.idx[j]] * b[data.idx[(j * 7) & (kGathers - 1)]];
    }
    sink = sink + acc;
    return secondsSince(t0) * 1e3;
}

// ---------------------------------------------------------------------------

namespace {

thread_local std::array<LayerTotals, size_t(Layer::Count)> tl_totals;
thread_local LayerScope *tl_top = nullptr;

} // anonymous namespace

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

LayerTotals &
layerTotals(Layer layer)
{
    return tl_totals[size_t(layer)];
}

LayerScope::LayerScope(Layer layer)
    : _layer(layer), _parent(tl_top), _startNs(nowNs())
{
    tl_top = this;
}

LayerScope::~LayerScope()
{
    const int64_t dur = nowNs() - _startNs;
    LayerTotals &t = tl_totals[size_t(_layer)];
    ++t.calls;
    t.totalNs += dur;
    t.selfNs += dur - _childNs;
    if (_parent)
        _parent->_childNs += dur;
    tl_top = _parent;
}

void
SpanBuffer::add(Span span)
{
    _spans.push_back(std::move(span));
}

bool
SpanBuffer::writeChromeTrace(const std::string &path) const
{
    std::ofstream os(path, std::ios::trunc);
    if (!os)
        return false;
    int64_t base = _spans.empty() ? 0 : _spans.front().startNs;
    for (const Span &s : _spans)
        base = std::min(base, s.startNs);
    os << "{\"traceEvents\":[";
    for (size_t i = 0; i < _spans.size(); ++i) {
        const Span &s = _spans[i];
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,"
                      "\"dur\":%.3f",
                      s.tid, double(s.startNs - base) / 1e3,
                      double(s.durNs) / 1e3);
        os << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name << "\","
           << buf;
        if (!s.args.empty()) {
            os << ",\"args\":{";
            for (size_t k = 0; k < s.args.size(); ++k) {
                char v[64];
                std::snprintf(v, sizeof v, "%.17g", s.args[k].second);
                os << (k ? "," : "") << "\"" << s.args[k].first
                   << "\":" << v;
            }
            os << "}";
        }
        os << "}";
    }
    os << "\n]}\n";
    return bool(os);
}

} // namespace perfbench
