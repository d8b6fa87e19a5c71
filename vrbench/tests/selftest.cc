/**
 * @file
 * Self-tests of the benchmark's own arithmetic and composition: the
 * tail percentile rule, span self-time, the failed-cell share under
 * an injected failure, and the traced run reproducing the untraced
 * sweep's simulated results.
 */

#include <gtest/gtest.h>

#include "driver/sweep_runner.hh"
#include "metrics.hh"
#include "traced.hh"

using namespace vrbench;
using vrsim::Technique;

namespace
{

std::vector<double>
oneTo(size_t n)
{
    std::vector<double> v;
    for (size_t i = n; i >= 1; i--)   // unsorted on purpose
        v.push_back(double(i));
    return v;
}

Span
makeSpan(uint32_t parent, int64_t start, int64_t end)
{
    Span s;
    s.parent = parent;
    s.start_ns = start;
    s.end_ns = end;
    return s;
}

vrsim::SystemConfig
digesting()
{
    vrsim::SystemConfig cfg = vrsim::SystemConfig::benchScale();
    cfg.collect_digest = true;
    return cfg;
}

vrsim::RunPlan
smallPlan()
{
    vrsim::GraphScale g;
    g.nodes = 2048;
    vrsim::HpcDbScale h;
    h.elements = 4096;
    vrsim::RunPlan plan(digesting());
    plan.scale(g, h).roi(4000).warmup(1000).add(
        {"camel", "bfs/KR"},
        {Technique::OoO, Technique::Pre, Technique::Imp, Technique::Vr,
         Technique::DvrOffload, Technique::DvrDiscovery, Technique::Dvr,
         Technique::Oracle});
    return plan;
}

} // namespace

TEST(Tail, HighestPercentileWithTenBeyond)
{
    Tail t = tailOf(oneTo(48));   // p90 has 4 beyond, p75 has 12
    EXPECT_EQ(t.percentile, 75.0);
    EXPECT_EQ(t.value, 36.0);
    EXPECT_EQ(t.beyond, 12u);
    EXPECT_EQ(t.samples, 48u);

    t = tailOf(oneTo(1000));      // rank 990, exactly ten beyond
    EXPECT_EQ(t.percentile, 99.0);
    EXPECT_EQ(t.value, 990.0);
    EXPECT_EQ(t.beyond, 10u);

    t = tailOf(oneTo(999));       // p99 leaves nine: fall to p95
    EXPECT_EQ(t.percentile, 95.0);
    EXPECT_EQ(t.value, 950.0);
    EXPECT_EQ(t.beyond, 49u);

    t = tailOf(oneTo(10000));
    EXPECT_EQ(t.percentile, 99.9);
    EXPECT_EQ(t.value, 9990.0);
}

TEST(Tail, FewSamplesFallBackToTheMaximum)
{
    Tail t = tailOf(oneTo(20));   // p50: rank 10, ten beyond
    EXPECT_EQ(t.percentile, 50.0);
    EXPECT_EQ(t.value, 10.0);

    t = tailOf(oneTo(19));        // nothing qualifies
    EXPECT_EQ(t.percentile, 100.0);
    EXPECT_EQ(t.value, 19.0);
    EXPECT_EQ(t.beyond, 0u);

    EXPECT_EQ(tailOf({}).value, 0.0);
}

TEST(Tail, MedianAndPercentile)
{
    EXPECT_EQ(median({3, 1, 2}), 2.0);
    EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
    EXPECT_EQ(percentile({3, 1, 2}, 50.0), 2.0);
    EXPECT_EQ(percentile(oneTo(48), 50.0), 24.0);
    EXPECT_EQ(percentile({}, 50.0), 0.0);
}

TEST(Spans, SelfTimeSubtractsTheUnionOfChildren)
{
    std::vector<Span> s = {
        makeSpan(0, 0, 100),    // 1: root
        makeSpan(1, 10, 40),    // 2: child of 1
        makeSpan(1, 30, 60),    // 3: child of 1, overlaps 2
        makeSpan(2, 15, 20),    // 4: grandchild (not a direct child of 1)
        makeSpan(1, 90, 120),   // 5: child of 1, runs past its end
        makeSpan(0, 200, 210),  // 6: second root, no children
    };
    std::vector<int64_t> self = selfNs(s);
    EXPECT_EQ(self[0], 100 - 50 - 10);  // [10,60) and [90,100)
    EXPECT_EQ(self[1], 30 - 5);
    EXPECT_EQ(self[2], 30);
    EXPECT_EQ(self[3], 5);
    EXPECT_EQ(self[4], 30);
    EXPECT_EQ(self[5], 10);
}

TEST(Spans, LogNestsByBeginEndOrder)
{
    SpanLog log(7);
    uint32_t a = log.begin("outer");
    {
        SpanLog::Scope b(log, "inner");
        SpanLog::Scope c(log, "leaf");
    }
    { SpanLog::Scope d(log, "inner"); }
    log.end(a);
    const auto &s = log.spans();
    ASSERT_EQ(s.size(), 4u);
    EXPECT_EQ(s[0].parent, 0u);
    EXPECT_EQ(s[1].parent, 1u);
    EXPECT_EQ(s[2].parent, 2u);
    EXPECT_EQ(s[3].parent, 1u);
    EXPECT_EQ(s[0].cell, 7u);
    EXPECT_EQ(log.count("inner"), 2u);
    double self = log.selfTotal("outer");
    EXPECT_GE(self, 0.0);
    EXPECT_NEAR(self + log.total("inner"), log.total("outer"), 1e-12);
}

TEST(FailedShare, InjectedCellCountsAgainstAttempted)
{
    vrsim::RunPlan plan = smallPlan();
    plan.injectFail(Technique::Vr);
    vrsim::WorkloadCache cache;
    vrsim::SweepOptions so;
    so.jobs = 2;
    so.progress = false;
    so.cache = &cache;
    vrsim::ResultTable t = vrsim::SweepRunner(so).run(plan);
    ASSERT_EQ(t.size(), 16u);
    EXPECT_EQ(t.failures(), 2u);   // one VR cell per spec
    EXPECT_DOUBLE_EQ(failedShare(t.failures(), t.size()), 2.0 / 16.0);
    EXPECT_EQ(failedShare(0, 0), 0.0);
}

TEST(Traced, ReproducesTheUntracedSweep)
{
    vrsim::RunPlan plan = smallPlan();
    vrsim::WorkloadCache cache;
    vrsim::SweepOptions so;
    so.jobs = 2;
    so.progress = false;
    so.cache = &cache;
    so.check_digests = true;
    vrsim::ResultTable t = vrsim::SweepRunner(so).run(plan);
    EXPECT_EQ(t.failures(), 0u);

    std::vector<TracedCell> cells =
        runTracedSweep(plan.points(), cache, 2);
    std::vector<vrsim::SimResult> traced;
    for (const TracedCell &c : cells)
        traced.push_back(c.result);
    EXPECT_EQ(fingerprintOf(t.points(), traced),
              fingerprintOf(t.points(), t.results()));
    for (size_t i = 0; i < cells.size(); i++) {
        ASSERT_TRUE(traced[i].digest);
        EXPECT_EQ(*traced[i].digest, *t.results()[i].digest);
        EXPECT_EQ(cells[i].spans.count(span::kDetailed), 1u);
    }
}

TEST(Traced, SampledRunMatchesAndFunctionalDigestAgrees)
{
    vrsim::GraphScale g;
    g.nodes = 4096;
    vrsim::SamplingPlan s;
    s.ff_insts = 20'000;
    s.period = 10'000;
    s.detail = 1'000;
    s.warm = 2'000;
    vrsim::RunPlan plan(digesting());
    plan.scale(g, {}).roi(40'000).sample(s).add(
        {"bfs/UR"}, {Technique::OoO, Technique::Vr, Technique::Dvr});
    vrsim::WorkloadCache cache;
    vrsim::SweepOptions so;
    so.progress = false;
    so.cache = &cache;
    so.check_digests = true;
    vrsim::ResultTable t = vrsim::SweepRunner(so).run(plan);
    EXPECT_EQ(t.failures(), 0u);

    std::vector<TracedCell> cells =
        runTracedSweep(plan.points(), cache, 1);
    std::vector<vrsim::SimResult> traced;
    for (const TracedCell &c : cells)
        traced.push_back(c.result);
    EXPECT_EQ(fingerprintOf(t.points(), traced),
              fingerprintOf(t.points(), t.results()));
    EXPECT_EQ(cells[0].ff_insts, 20'000u);
    EXPECT_EQ(cells[0].warm_ff_insts, 4u * 7'000u);
    EXPECT_EQ(cells[0].spans.count(span::kFf), 1u);
    EXPECT_EQ(cells[0].spans.count(span::kWarmFf), 4u);
    EXPECT_EQ(functionalDigest(t.points()[0], cache),
              *t.results()[0].digest);
}
