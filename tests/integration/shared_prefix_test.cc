/**
 * @file
 * End-to-end guards for the shared --ff-insts prefix snapshot
 * (WorkloadCache::prefix, docs/sampling.md "Shared prefix"): a
 * sampled multi-column sweep that starts every column from one
 * snapshot must produce the table, stats-json and digests of runs
 * that each execute their own prefix — at any job count and under
 * process isolation — while building each snapshot exactly once; a
 * workload that halts inside the prefix must yield the same Fatal row
 * in every column.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "driver/report.hh"
#include "driver/sweep_runner.hh"

namespace vrsim
{
namespace
{

RunPlan
sampledPlan(uint64_t ff_insts)
{
    HpcDbScale h;
    h.elements = 1 << 14;
    SamplingPlan s;
    s.ff_insts = ff_insts;
    s.period = 10'000;
    s.detail = 2'000;
    s.warm = 3'000;
    RunPlan plan(SystemConfig::benchScale());
    plan.scale({}, h).roi(40'000).sample(s);
    plan.add({"camel", "kangaroo"},
             {Technique::OoO, Technique::Vr, Technique::Dvr,
              Technique::Pre});
    return plan;
}

/** Everything a sweep renders, minus host time. */
struct Rendered
{
    std::string csv;
    std::string stats_json;
    std::vector<std::optional<DigestRecord>> digests;
};

Rendered
render(const ResultTable &table)
{
    Rendered r;
    std::ostringstream csv, json;
    table.writeCsv(csv);
    writeStatsJson(json, table);
    r.csv = csv.str();
    r.stats_json = json.str();
    for (const SimResult &res : table.results())
        r.digests.push_back(res.digest);
    return r;
}

/** The pre-snapshot behaviour: every cell executes its own prefix
 *  in place (runWorkload without a snapshot), with digests on. */
Rendered
privatePrefixReference(const RunPlan &plan)
{
    WorkloadCache cache;
    std::vector<RunPoint> points = plan.points();
    std::vector<SimResult> results;
    for (RunPoint &p : points) {
        p.cfg.collect_digest = true;
        setLogContext(p.id());
        results.push_back(runGuarded(p.spec, p.technique, [&] {
            Workload w = cache.instantiate(p.spec, p.gscale, p.hscale);
            return runWorkload(w, p.technique, p.cfg, p.max_insts,
                               p.warmup, nullptr, nullptr, p.sampling);
        }));
        setLogContext("");
    }
    EXPECT_EQ(cache.prefixBuilds(), 0u);
    return render(ResultTable(std::move(points), std::move(results)));
}

struct Mode
{
    const char *name;
    unsigned jobs;
    Isolation isolation;
};

const Mode kModes[] = {
    {"jobs=1", 1, Isolation::Thread},
    {"jobs=3", 3, Isolation::Thread},
    {"process jobs=2", 2, Isolation::Process},
};

TEST(SharedPrefixTest, SweepMatchesPrivatePrefixesInEveryMode)
{
    RunPlan plan = sampledPlan(20'000);
    const Rendered want = privatePrefixReference(plan);
    for (const Mode &m : kModes) {
        SweepOptions opts;
        opts.progress = false;
        opts.jobs = m.jobs;
        opts.isolation = m.isolation;
        opts.check_digests = true;
        WorkloadCache cache;
        opts.cache = &cache;
        ResultTable table = SweepRunner(opts).run(plan);
        for (const SimResult &r : table.results())
            ASSERT_TRUE(r.ok()) << m.name << ": " << r.status_message;
        Rendered got = render(table);
        EXPECT_EQ(got.csv, want.csv) << m.name;
        EXPECT_EQ(got.stats_json, want.stats_json) << m.name;
        EXPECT_EQ(got.digests, want.digests) << m.name;
        // One snapshot per spec served all four columns (built in the
        // parent under process isolation; children inherit it).
        EXPECT_EQ(cache.prefixBuilds(), 2u) << m.name;
    }
}

TEST(SharedPrefixTest, OnlyTheBuildingCellIsChargedThePrefix)
{
    RunPlan plan = sampledPlan(20'000);
    SweepOptions opts;
    opts.progress = false;
    opts.jobs = 1;
    WorkloadCache cache;
    opts.cache = &cache;
    ResultTable table = SweepRunner(opts).run(plan);
    const std::vector<RunPoint> &points = table.points();
    for (size_t i = 0; i < points.size(); i++) {
        const SimResult &r = table.results()[i];
        ASSERT_TRUE(r.ok());
        // ff_insts (a statistic) always counts the prefix; what the
        // cell executed itself only does in the first column.
        uint64_t warm_ff = r.sample->ff_insts - 20'000;
        bool builder = points[i].technique == Technique::OoO;
        EXPECT_EQ(r.host_ff_insts, warm_ff + (builder ? 20'000 : 0))
            << points[i].id();
        EXPECT_GT(r.host_ff_seconds, 0.0);
        EXPECT_GE(r.host_seconds, r.host_ff_seconds);
    }
}

TEST(SharedPrefixTest, HaltInsidePrefixGivesIdenticalFatalRows)
{
    RunPlan plan = sampledPlan(1ull << 40);
    const Rendered want = privatePrefixReference(plan);
    ASSERT_NE(want.csv.find("halted after"), std::string::npos);
    for (const Mode &m : kModes) {
        SweepOptions opts;
        opts.progress = false;
        opts.jobs = m.jobs;
        opts.isolation = m.isolation;
        opts.check_digests = true;
        WorkloadCache cache;
        opts.cache = &cache;
        ResultTable table = SweepRunner(opts).run(plan);
        for (const SimResult &r : table.results())
            EXPECT_EQ(r.status, SimStatus::Fatal) << m.name;
        EXPECT_EQ(render(table).csv, want.csv) << m.name;
        EXPECT_EQ(cache.prefixBuilds(), 2u) << m.name;
    }
}

} // namespace
} // namespace vrsim
