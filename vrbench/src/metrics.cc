#include "metrics.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sys/resource.h>

#include "driver/report.hh"

namespace vrbench
{

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

namespace
{

/** 1-based nearest rank of percentile @p p among @p n samples. */
size_t
nearestRank(size_t n, double p)
{
    size_t r = size_t(std::ceil(p / 100.0 * double(n) - 1e-9));
    return std::clamp<size_t>(r, 1, n);
}

} // namespace

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    return v[nearestRank(v.size(), p) - 1];
}

Tail
tailOf(const std::vector<double> &samples)
{
    Tail t;
    t.samples = samples.size();
    if (samples.empty())
        return t;
    std::vector<double> v = samples;
    std::sort(v.begin(), v.end());
    t.value = v.back();
    for (double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
        size_t rank = nearestRank(v.size(), p);
        if (v.size() - rank >= 10) {
            t.percentile = p;
            t.value = v[rank - 1];
            t.beyond = v.size() - rank;
            break;
        }
    }
    return t;
}

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch()).count();
}

uint32_t
SpanLog::begin(const char *name)
{
    Span s;
    s.name = name;
    s.parent = open_.empty() ? 0 : open_.back();
    s.cell = cell_;
    s.start_ns = nowNs();
    spans_.push_back(s);
    open_.push_back(uint32_t(spans_.size()));
    return open_.back();
}

void
SpanLog::end(uint32_t id)
{
    vrsim::panicIfNot(!open_.empty() && open_.back() == id,
                      "vrbench: spans closed out of order");
    open_.pop_back();
    spans_[id - 1].end_ns = nowNs();
}

double
SpanLog::total(const char *name) const
{
    double s = 0.0;
    for (const Span &sp : spans_)
        if (std::string_view(sp.name) == name)
            s += sp.seconds();
    return s;
}

size_t
SpanLog::count(const char *name) const
{
    size_t n = 0;
    for (const Span &sp : spans_)
        n += std::string_view(sp.name) == name;
    return n;
}

double
SpanLog::selfTotal(const char *name) const
{
    std::vector<int64_t> self = selfNs(spans_);
    int64_t ns = 0;
    for (size_t i = 0; i < spans_.size(); i++)
        if (std::string_view(spans_[i].name) == name)
            ns += self[i];
    return double(ns) * 1e-9;
}

std::vector<int64_t>
selfNs(const std::vector<Span> &spans)
{
    // Direct children of each span, as [start, end) clipped to it.
    std::vector<std::vector<std::pair<int64_t, int64_t>>> kids(
        spans.size());
    for (const Span &s : spans) {
        if (s.parent == 0 || s.parent > spans.size())
            continue;
        const Span &p = spans[s.parent - 1];
        int64_t lo = std::max(s.start_ns, p.start_ns);
        int64_t hi = std::min(s.end_ns, p.end_ns);
        if (hi > lo)
            kids[s.parent - 1].emplace_back(lo, hi);
    }
    std::vector<int64_t> self(spans.size());
    for (size_t i = 0; i < spans.size(); i++) {
        auto &k = kids[i];
        std::sort(k.begin(), k.end());
        int64_t covered = 0;
        int64_t cur_lo = 0, cur_hi = 0;
        bool open = false;
        for (auto [lo, hi] : k) {
            if (open && lo <= cur_hi) {
                cur_hi = std::max(cur_hi, hi);
                continue;
            }
            if (open)
                covered += cur_hi - cur_lo;
            cur_lo = lo;
            cur_hi = hi;
            open = true;
        }
        if (open)
            covered += cur_hi - cur_lo;
        self[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
    }
    return self;
}

double
failedShare(size_t failed, size_t attempted)
{
    return attempted ? double(failed) / double(attempted) : 0.0;
}

uint64_t
fingerprintOf(const std::vector<vrsim::RunPoint> &points,
              const std::vector<vrsim::SimResult> &results)
{
    uint64_t hash = 0xcbf29ce484222325ull;
    auto mix = [&hash](const std::string &s) {
        for (unsigned char c : s) {
            hash ^= c;
            hash *= 0x100000001b3ull;
        }
        hash ^= 0xff;   // field separator
        hash *= 0x100000001b3ull;
    };
    char buf[64];
    for (size_t i = 0; i < points.size(); i++) {
        const vrsim::SimResult &r = results[i];
        mix(points[i].id());
        mix(vrsim::simStatusName(r.status));
        vrsim::StatsRegistry reg = vrsim::buildRegistry(r);
        reg.visit([&](const vrsim::StatNode &n) {
            if (n.path().rfind("host.", 0) == 0)
                return;
            mix(n.path());
            std::snprintf(buf, sizeof(buf), "%.17g", n.value(reg));
            mix(buf);
            if (n.kind() == vrsim::StatKind::Sample) {
                std::snprintf(buf, sizeof(buf), "%llu %.17g",
                              (unsigned long long)n.samples(),
                              n.stddev());
                mix(buf);
            }
            for (uint64_t b : n.buckets())
                mix(std::to_string(b));
        });
    }
    return hash;
}

uint64_t
detailedInsts(const vrsim::RunPoint &p, const vrsim::SimResult &r)
{
    if (r.sample)
        return r.core.instructions + r.sample->warm_insts;
    return r.core.instructions + p.warmup;
}

uint64_t
functionalInsts(const vrsim::SimResult &r)
{
    return r.sample ? r.sample->ff_insts : 0;
}

double
peakRssMb()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0;   // Linux: KiB
}

std::string
hex64(uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "0x%016llx", (unsigned long long)v);
    return buf;
}

} // namespace vrbench
