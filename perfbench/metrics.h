/**
 * @file
 * The benchmark's own arithmetic: percentiles that carry their sample
 * support, SLO attainment over every offered request, open-loop send
 * lag, and per-layer self time from recorded spans. Header-only and
 * free of library dependencies so selftest.cc can check it on
 * hand-built samples.
 */

#ifndef VLR_PERFBENCH_METRICS_H
#define VLR_PERFBENCH_METRICS_H

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

/** Samples a percentile must have strictly above it to be reported. */
inline constexpr std::size_t kMinBeyond = 10;

/** A percentile together with the samples behind it. */
struct Percentile
{
    double value = 0.0;
    /** Samples the percentile was taken over. */
    std::size_t count = 0;
    /** Samples strictly greater than value. */
    std::size_t beyond = 0;
    /** True when at least kMinBeyond samples lie beyond value. */
    bool supported = false;
};

/**
 * Percentile @p p (in [0, 100]) of @p samples with linear interpolation
 * between order statistics (numpy's default), plus its support.
 */
inline Percentile
percentile(std::vector<double> samples, double p)
{
    Percentile out;
    out.count = samples.size();
    if (samples.empty())
        return out;
    std::sort(samples.begin(), samples.end());
    const double rank =
        p / 100.0 * static_cast<double>(samples.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(rank));
    const std::size_t hi = std::min(lo + 1, samples.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    out.value = samples[lo] + (samples[hi] - samples[lo]) * frac;
    out.beyond = static_cast<std::size_t>(
        samples.end() -
        std::upper_bound(samples.begin(), samples.end(), out.value));
    out.supported = out.beyond >= kMinBeyond;
    return out;
}

/** How one offered request ended, as the client saw it. */
enum class Outcome : std::uint8_t
{
    kPending,  ///< never resolved (counts as a miss and a failure)
    kServed,
    kExpired,
    kRejected,
};

/**
 * Share of offered requests served within @p limit seconds of their
 * due time. Rejected, expired and unresolved requests are misses; the
 * denominator is every request offered, not only the served ones.
 */
inline double
sloAttainment(const std::vector<Outcome> &outcomes,
              const std::vector<double> &latency_s, double limit)
{
    if (outcomes.empty())
        return 0.0;
    std::size_t met = 0;
    for (std::size_t i = 0; i < outcomes.size(); ++i)
        if (outcomes[i] == Outcome::kServed && latency_s[i] <= limit)
            ++met;
    return static_cast<double>(met) /
           static_cast<double>(outcomes.size());
}

/** Latency statistics of one time segment of an open-loop replay. */
struct SegmentStats
{
    Percentile p50;
    Percentile p90;
    Percentile p99;
    double attainment = 0.0;
    std::size_t offered = 0;
    /** p99 of the generator's send lag (seconds) in this segment. */
    double lagP99 = 0.0;
    /** Due-time interval the segment covers (ns). */
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    /** Share of host CPU time stolen by the hypervisor meanwhile (filled
     *  in by the caller, which samples the host). */
    double stealShare = 0.0;
};

/**
 * Split a replay into @p segments equal slices of due time and take
 * p50/p90/p99 of the served latencies, SLO attainment (over everything
 * offered) and the send-lag p99 in each.
 */
inline std::vector<SegmentStats>
segmentStats(const std::vector<std::int64_t> &due_ns,
             const std::vector<std::int64_t> &sent_ns,
             const std::vector<Outcome> &outcomes,
             const std::vector<double> &latency_s, double limit,
             std::size_t segments)
{
    std::vector<SegmentStats> out(segments);
    if (due_ns.empty() || segments == 0)
        return out;
    const std::int64_t first = due_ns.front();
    const double span = static_cast<double>(due_ns.back() - first) + 1.0;
    std::vector<std::vector<double>> served(segments);
    std::vector<std::vector<Outcome>> outs(segments);
    std::vector<std::vector<double>> lats(segments);
    std::vector<std::vector<double>> lags(segments);
    for (std::size_t i = 0; i < due_ns.size(); ++i) {
        const auto seg = std::min(
            segments - 1,
            static_cast<std::size_t>(static_cast<double>(due_ns[i] - first) /
                                     span * static_cast<double>(segments)));
        outs[seg].push_back(outcomes[i]);
        lats[seg].push_back(latency_s[i]);
        lags[seg].push_back(static_cast<double>(sent_ns[i] - due_ns[i]) *
                            1e-9);
        if (outcomes[i] == Outcome::kServed)
            served[seg].push_back(latency_s[i]);
    }
    for (std::size_t s = 0; s < segments; ++s) {
        out[s].p50 = percentile(served[s], 50.0);
        out[s].p90 = percentile(served[s], 90.0);
        out[s].p99 = percentile(served[s], 99.0);
        out[s].attainment = sloAttainment(outs[s], lats[s], limit);
        out[s].offered = outs[s].size();
        out[s].lagP99 = percentile(lags[s], 99.0).value;
        out[s].startNs = first + static_cast<std::int64_t>(
                                     span * static_cast<double>(s) /
                                     static_cast<double>(segments));
        out[s].endNs = first + static_cast<std::int64_t>(
                                   span * static_cast<double>(s + 1) /
                                   static_cast<double>(segments));
    }
    return out;
}

/**
 * Segments a run's figures are taken from: those where the generator
 * kept its schedule (send-lag p99 within @p max_lag seconds) and the
 * hypervisor stole at most @p max_steal of the host's CPU time, so a
 * host stall is not read as a program regression. When fewer than half
 * qualify, the half the host disturbed least (by steal, then send lag)
 * is used instead, and the run is flagged by its caller.
 */
inline std::vector<SegmentStats>
steadySegments(const std::vector<SegmentStats> &segs, double max_lag,
               double max_steal)
{
    std::vector<SegmentStats> out;
    for (const SegmentStats &s : segs)
        if (s.lagP99 <= max_lag && s.stealShare <= max_steal)
            out.push_back(s);
    if (2 * out.size() >= segs.size())
        return out;
    out = segs;
    std::stable_sort(out.begin(), out.end(),
                     [](const SegmentStats &a, const SegmentStats &b) {
                         if (a.stealShare != b.stealShare)
                             return a.stealShare < b.stealShare;
                         return a.lagP99 < b.lagP99;
                     });
    out.resize((segs.size() + 1) / 2);
    return out;
}

/** Median of @p xs (0 when empty). */
inline double
median(std::vector<double> xs)
{
    return percentile(std::move(xs), 50.0).value;
}

/**
 * Open-loop send lag in seconds: how late the generator issued a
 * request relative to the time the trace scheduled it.
 */
inline double
sendLagSeconds(std::int64_t due_ns, std::int64_t sent_ns)
{
    return static_cast<double>(sent_ns - due_ns) * 1e-9;
}

/**
 * Open-loop request latency in seconds, measured from the scheduled
 * due time (not the actual send) so a generator stall counts against
 * every request it delayed.
 */
inline double
latencySeconds(std::int64_t due_ns, std::int64_t done_ns)
{
    return static_cast<double>(done_ns - due_ns) * 1e-9;
}

/** One recorded interval. parent is an index into the span list. */
struct Span
{
    std::string name;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    /** Index of the causing span, or -1 for a root. */
    std::int64_t parent = -1;
    /** Request the span belongs to (spans of one request share it). */
    std::uint64_t request = 0;
    /** Recording thread (0 = client, 1 = dispatcher callback, ...). */
    std::uint32_t thread = 0;
};

/** Layer of a span: its name up to the first '.'. */
inline std::string
layerOf(const std::string &name)
{
    return name.substr(0, name.find('.'));
}

/** Aggregate time of one span name. */
struct SelfTime
{
    std::size_t spans = 0;
    double totalNs = 0.0;
    double selfNs = 0.0;
};

/**
 * Per-name self time: each span's duration minus the part of its
 * interval covered by its children (overlapping children are merged,
 * parts outside the parent are clipped).
 */
inline std::map<std::string, SelfTime>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::size_t>> children(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i)
        if (spans[i].parent >= 0 &&
            static_cast<std::size_t>(spans[i].parent) < spans.size())
            children[static_cast<std::size_t>(spans[i].parent)]
                .push_back(i);

    std::map<std::string, SelfTime> out;
    std::vector<std::pair<std::int64_t, std::int64_t>> iv;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        const std::int64_t dur = std::max<std::int64_t>(0, s.endNs - s.startNs);
        iv.clear();
        for (const std::size_t c : children[i]) {
            const std::int64_t b = std::max(spans[c].startNs, s.startNs);
            const std::int64_t e = std::min(spans[c].endNs, s.endNs);
            if (e > b)
                iv.emplace_back(b, e);
        }
        std::sort(iv.begin(), iv.end());
        std::int64_t covered = 0;
        std::int64_t cur_b = 0;
        std::int64_t cur_e = -1;
        for (const auto &[b, e] : iv) {
            if (cur_e < b) {
                if (cur_e > cur_b)
                    covered += cur_e - cur_b;
                cur_b = b;
                cur_e = e;
            } else {
                cur_e = std::max(cur_e, e);
            }
        }
        if (cur_e > cur_b)
            covered += cur_e - cur_b;
        SelfTime &st = out[s.name];
        ++st.spans;
        st.totalNs += static_cast<double>(dur);
        st.selfNs += static_cast<double>(dur - covered);
    }
    return out;
}

} // namespace perfbench

#endif // VLR_PERFBENCH_METRICS_H
