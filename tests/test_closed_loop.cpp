/**
 * @file
 * Golden results of the closed loop (sim::Engine) on its two non-plan
 * callers: the Figure 6 Real-Sim day and a multi-zone day.  The texts
 * were captured when Real-Sim and the zones still had loops of their
 * own, so they pin that stepping them through Engine changed no bit.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "environment/location.hpp"
#include "multizone/multizone.hpp"
#include "sim/scenario.hpp"
#include "workload/trace_gen.hpp"

using namespace coolair;

namespace {

/** Every Summary field, %.17g, space-separated (days last). */
std::string
summaryText(const sim::Summary &s)
{
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "%.17g %.17g %.17g %.17g %.17g %.17g %.17g %.17g %.17g "
                  "%.17g %zu",
                  s.avgViolationC, s.avgWorstDailyRangeC,
                  s.minWorstDailyRangeC, s.maxWorstDailyRangeC, s.pue,
                  s.itKwh, s.coolingKwh, s.humidityViolationFrac,
                  s.rateViolationFrac, s.avgMaxInletC, s.days);
    return buf;
}

sim::ExperimentSpec
newarkSpec(sim::SystemId system)
{
    sim::ExperimentSpec spec;
    spec.location =
        environment::namedLocation(environment::NamedSite::Newark);
    spec.system = system;
    return spec;
}

} // anonymous namespace

TEST(ClosedLoop, RealSimDayMatchesGolden)
{
    // bench_fig6_realsim_validation's Real-Sim day.
    sim::ExperimentSpec spec = newarkSpec(sim::SystemId::Baseline);
    spec.style = cooling::ActuatorStyle::Abrupt;
    spec.runKind = sim::RunKind::SingleDay;
    spec.day = 182;

    sim::ModelSimScenario ms = sim::buildModelSimScenario(spec);
    ms.runDay(spec.day);
    EXPECT_EQ(summaryText(ms.metrics->summary()),
              "0.06960830912384755 23.182452995155199 23.182452995155199 "
              "23.182452995155199 1.4044679193522578 43.290933333333335 "
              "14.04651906548397 0.32916666666666666 0.1361111111111111 "
              "26.840296169641906 1");
    EXPECT_EQ(summaryText(ms.metrics->outsideSummary()),
              "0 15.76688799324014 15.76688799324014 15.76688799324014 1 0 "
              "0 0 0 0 1");
}

TEST(ClosedLoop, MultiZoneDayMatchesGolden)
{
    // Two zones at the default 30 s step, every balancer, baseline and
    // All-ND managers.
    struct Row
    {
        sim::SystemId system;
        multizone::BalancePolicy policy;
        const char *zone0;
        const char *zone1;
    };
    const Row rows[] = {
        {sim::SystemId::Baseline, multizone::BalancePolicy::RoundRobin,
         "0 3.6025437947965457 3.6025437947965457 3.6025437947965457 "
         "1.1250519401875412 36.066533333333332 1.6248673025052938 0 0 "
         "24.97737657356749 1",
         "0 3.5268081955597879 3.5268081955597879 3.5268081955597879 "
         "1.1250851091826899 36.113 1.6281585479144844 0 0 "
         "24.992988631567737 1"},
        {sim::SystemId::Baseline, multizone::BalancePolicy::CoolestFirst,
         "0 3.6289843037688101 3.6289843037688101 3.6289843037688101 "
         "1.1254077004503971 36.112333333333332 1.6397780145648913 0 0 "
         "24.983481744375418 1",
         "0 3.5588767870099716 3.5588767870099716 3.5588767870099716 "
         "1.125064272023814 36.065533333333335 1.625267004817267 0 0 "
         "24.983032802438746 1"},
        {sim::SystemId::Baseline, multizone::BalancePolicy::LeastLoaded,
         "0 3.5990458351071979 3.5990458351071979 3.5990458351071979 "
         "1.1251020360105972 36.182866666666669 1.6319209553666363 0 0 "
         "24.987069613177781 1",
         "0 3.4903043025409026 3.4903043025409026 3.4903043025409026 "
         "1.1251725121548299 35.992266666666666 1.6258611034798793 0 0 "
         "24.99702560027449 1"},
        {sim::SystemId::AllNd, multizone::BalancePolicy::RoundRobin,
         "0.0083485882659724928 9.7157132718653507 9.7157132718653507 "
         "9.7157132718653507 1.1606099642717131 24.663466666666668 "
         "1.9881211668165872 0 0.018055555555555554 27.641818700795909 1",
         "0.00021895381256754762 8.351427290473989 8.351427290473989 "
         "8.351427290473989 1.145574627256827 26.153933333333335 "
         "1.7150344296332349 0 0.0083333333333333332 27.850967679424443 1"},
        {sim::SystemId::AllNd, multizone::BalancePolicy::CoolestFirst,
         "0.011351010303972056 9.4806476812054861 9.4806476812054861 "
         "9.4806476812054861 1.1729390845254262 23.912133333333333 "
         "2.2223717810499295 0 0.011111111111111112 28.009366006767802 1",
         "0.0025676439794527989 8.8138890319748988 8.8138890319748988 "
         "8.8138890319748988 1.1522895926542966 28.520533333333333 "
         "2.0617377369499588 0 0.0097222222222222224 27.714733090535962 1"},
        {sim::SystemId::AllNd, multizone::BalancePolicy::LeastLoaded,
         "0.04858254078031092 9.8662001452034751 9.8662001452034751 "
         "9.8662001452034751 1.1548192296910955 24.637799999999999 "
         "1.8433812172832749 0 0.047222222222222221 28.555554142755025 1",
         "1.5768349552445893e-05 8.4116049674497901 8.4116049674497901 "
         "8.4116049674497901 1.1607902245307811 24.381066666666666 "
         "1.9697518502999418 0 0.0048611111111111112 27.782899296490573 1"},
    };
    for (const Row &row : rows) {
        multizone::MultiZoneConfig cfg;
        cfg.zones = 2;
        cfg.policy = row.policy;
        multizone::MultiZoneScenario mz =
            multizone::buildMultiZoneScenario(newarkSpec(row.system), cfg);
        mz.engine->runDay(150, workload::facebookTrace({}));
        SCOPED_TRACE(std::string(sim::systemName(row.system)) + " / " +
                     multizone::policyName(row.policy));
        EXPECT_EQ(summaryText(mz.engine->zoneSummary(0)), row.zone0);
        EXPECT_EQ(summaryText(mz.engine->zoneSummary(1)), row.zone1);
    }
}
