/**
 * @file
 * Unit tests for the benchmark's arithmetic (metrics.h) on hand-built
 * samples. run.py runs this binary before every benchmark run and
 * refuses to measure when it fails.
 *
 * Run: ./perfbench_selftest   (exit 0 = all checks passed)
 */

#include <cmath>
#include <cstdio>

#include "metrics.h"

namespace
{

int g_failures = 0;

void
check(bool ok, const char *what)
{
    if (!ok) {
        std::fprintf(stderr, "FAIL: %s\n", what);
        ++g_failures;
    }
}

bool
near(double a, double b)
{
    return std::fabs(a - b) < 1e-9;
}

void
testPercentileSupport()
{
    using perfbench::percentile;
    // 1..1000: p99 interpolates between 990 and 991; exactly ten
    // samples (991..1000) lie strictly beyond 990.01.
    std::vector<double> xs;
    for (int i = 1; i <= 1000; ++i)
        xs.push_back(i);
    const auto p99 = percentile(xs, 99.0);
    check(near(p99.value, 990.01), "p99 of 1..1000 interpolates");
    check(p99.count == 1000, "p99 reports its sample count");
    check(p99.beyond == 10, "ten samples beyond p99 of 1..1000");
    check(p99.supported, "p99 of 1000 samples is supported");

    // 900 samples: p99 = 891.01 leaves only 892..900 beyond it, nine
    // samples, so the percentile is not reportable.
    xs.resize(900);
    const auto thin = percentile(xs, 99.0);
    check(near(thin.value, 891.01), "p99 of 1..900 interpolates");
    check(thin.beyond == 9, "nine samples beyond p99 of 1..900");
    check(!thin.supported, "p99 of 900 samples is unsupported");

    // Median of an even-sized set interpolates; ties at the value are
    // not counted as beyond it.
    const auto p50 = percentile({4.0, 1.0, 3.0, 2.0}, 50.0);
    check(near(p50.value, 2.5), "median of 1..4 is 2.5");
    check(p50.beyond == 2, "two samples beyond the median of 1..4");
    const auto flat = percentile({5.0, 5.0, 5.0}, 50.0);
    check(flat.beyond == 0, "equal samples are not beyond");
    check(percentile({}, 50.0).count == 0, "empty set has no samples");
}

void
testSloAttainment()
{
    using perfbench::Outcome;
    const std::vector<Outcome> outcomes = {
        Outcome::kServed,   Outcome::kServed,  Outcome::kRejected,
        Outcome::kExpired,  Outcome::kServed,  Outcome::kPending,
    };
    // Latencies of rejected/expired/pending requests are small on
    // purpose: they must still count as misses.
    const std::vector<double> lat = {0.001, 0.005, 0.0, 0.0001, 0.002,
                                     0.0};
    const double a = perfbench::sloAttainment(outcomes, lat, 0.002);
    check(near(a, 2.0 / 6.0),
          "attainment counts rejected, expired and pending as misses");
    check(near(perfbench::sloAttainment(outcomes, lat, 1.0), 3.0 / 6.0),
          "attainment denominator is every offered request");
    check(perfbench::sloAttainment({}, {}, 1.0) == 0.0,
          "no offered requests attains nothing");
}

void
testSegments()
{
    using perfbench::Outcome;
    // Ten requests due 1 us apart split into two segments of five.
    std::vector<std::int64_t> due;
    for (std::int64_t i = 0; i < 10; ++i)
        due.push_back(i * 1000);
    const std::vector<Outcome> outcomes = {
        Outcome::kServed, Outcome::kServed,   Outcome::kServed,
        Outcome::kServed, Outcome::kServed,   Outcome::kServed,
        Outcome::kRejected, Outcome::kServed, Outcome::kExpired,
        Outcome::kServed,
    };
    const std::vector<double> lat = {1e-3, 2e-3, 3e-3, 4e-3, 5e-3,
                                     10e-3, 0.0, 1e-3, 0.0, 2e-3};
    // The second segment's generator ran 2 ms late once.
    std::vector<std::int64_t> sent = due;
    sent[7] += 2'000'000;
    const auto segs =
        perfbench::segmentStats(due, sent, outcomes, lat, 4.5e-3, 2);
    check(segs.size() == 2, "two segments");
    check(segs[0].offered == 5 && segs[1].offered == 5,
          "segments split by due time");
    check(near(segs[0].attainment, 0.8), "segment 0 attainment");
    check(near(segs[1].attainment, 0.4),
          "segment 1 counts rejected and expired as misses");
    check(near(segs[0].p50.value, 3e-3), "segment 0 median latency");
    check(near(segs[0].p90.value, 4.6e-3), "segment 0 p90 interpolates");
    check(segs[1].p50.count == 3 && near(segs[1].p50.value, 2e-3),
          "segment percentiles use served requests only");
    check(near(perfbench::median({segs[0].attainment, segs[1].attainment}),
               0.6),
          "run figure is the median over segments");
    check(segs[0].lagP99 == 0.0 && segs[1].lagP99 > 1e-3,
          "segment send-lag p99 from the due time");
    check(segs[0].startNs == 0 && segs[0].endNs == segs[1].startNs &&
              segs[1].endNs > 9000,
          "segments cover the due-time span");
    const auto steady = perfbench::steadySegments(segs, 1e-4, 0.03);
    check(steady.size() == 1 && steady[0].offered == 5 &&
              near(steady[0].attainment, 0.8),
          "segments where the generator lagged are set aside");
    std::vector<perfbench::SegmentStats> four(4);
    four[1].stealShare = 0.2;
    check(perfbench::steadySegments(four, 1e-4, 0.03).size() == 3,
          "segments the hypervisor stole from are set aside");
    four[0].lagP99 = four[2].lagP99 = 1.0;
    four[3].offered = 7;
    const auto half = perfbench::steadySegments(four, 1e-4, 0.03);
    check(half.size() == 2 && half[0].offered == 7 &&
              half[1].stealShare == 0.0,
          "the least-disturbed half is kept when most are disturbed");
}

void
testSendLagFromDue()
{
    // Due at 1 ms, sent at 1.25 ms, done at 3 ms: lag 0.25 ms and
    // latency 2 ms from the due time (not 1.75 ms from the send).
    const std::int64_t due = 1'000'000;
    const std::int64_t sent = 1'250'000;
    const std::int64_t done = 3'000'000;
    check(near(perfbench::sendLagSeconds(due, sent), 0.25e-3),
          "send lag is measured from the due time");
    check(near(perfbench::latencySeconds(due, done), 2e-3),
          "latency is measured from the due time");
}

void
testSelfTime()
{
    using perfbench::Span;
    // Parent [0, 100) with children [10, 40) and [30, 60) (overlap
    // merged: 50 covered) and one child poking out at [90, 120)
    // (clipped to 10): self = 100 - 60 = 40.
    std::vector<Span> spans = {
        {"engine.search", 0, 100, -1, 1, 0},
        {"vecsearch.cq", 10, 40, 0, 1, 0},
        {"vecsearch.lut", 30, 60, 0, 1, 0},
        {"vecsearch.lut", 90, 120, 0, 1, 0},
    };
    const auto st = perfbench::selfTimes(spans);
    check(near(st.at("engine.search").selfNs, 40.0),
          "self time subtracts merged, clipped child coverage");
    check(near(st.at("engine.search").totalNs, 100.0),
          "total time is the span duration");
    check(st.at("vecsearch.lut").spans == 2, "spans counted per name");
    check(near(st.at("vecsearch.lut").selfNs, 60.0),
          "leaf self time equals its duration");
    check(perfbench::layerOf("vecsearch.cq") == "vecsearch",
          "layer is the name prefix");
}

} // namespace

int
main()
{
    testPercentileSupport();
    testSloAttainment();
    testSegments();
    testSendLagFromDue();
    testSelfTime();
    if (g_failures != 0) {
        std::fprintf(stderr, "perfbench_selftest: %d check(s) failed\n",
                     g_failures);
        return 1;
    }
    std::fprintf(stderr, "perfbench_selftest: all checks passed\n");
    return 0;
}
