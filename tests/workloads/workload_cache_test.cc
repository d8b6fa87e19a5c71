/**
 * @file
 * Tests for the workload build-artifact cache: build-once semantics
 * (including under concurrent first requests), instantiation isolation
 * and failure propagation.
 */

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "workloads/workload_cache.hh"

namespace vrsim
{
namespace
{

HpcDbScale
smallScale()
{
    HpcDbScale h;
    h.elements = 1 << 10;
    return h;
}

TEST(WorkloadCacheTest, ArtifactBuiltOnceAndShared)
{
    WorkloadCache cache;
    auto a = cache.artifact("camel", {}, smallScale());
    auto b = cache.artifact("camel", {}, smallScale());
    EXPECT_EQ(a.get(), b.get());
    EXPECT_EQ(cache.builds(), 1u);
    EXPECT_EQ(cache.size(), 1u);
}

TEST(WorkloadCacheTest, DistinctScalesAreDistinctArtifacts)
{
    WorkloadCache cache;
    HpcDbScale big = smallScale();
    big.elements *= 2;
    auto a = cache.artifact("camel", {}, smallScale());
    auto b = cache.artifact("camel", {}, big);
    EXPECT_NE(a.get(), b.get());
    EXPECT_EQ(cache.builds(), 2u);
}

TEST(WorkloadCacheTest, KeyNamesEveryScaleKnob)
{
    GraphScale g;
    g.nodes = 128;
    g.avg_degree = 4;
    HpcDbScale h;
    h.elements = 256;
    std::string k = WorkloadCache::key("bfs/KR", g, h);
    EXPECT_NE(k.find("bfs/KR"), std::string::npos);
    EXPECT_NE(k.find("n=128"), std::string::npos);
    EXPECT_NE(k.find("d=4"), std::string::npos);
    EXPECT_NE(k.find("e=256"), std::string::npos);
    // Different seeds must not alias.
    GraphScale g2 = g;
    g2.seed += 1;
    EXPECT_NE(WorkloadCache::key("bfs/KR", g2, h), k);
}

TEST(WorkloadCacheTest, ConcurrentFirstRequestsBuildOnce)
{
    WorkloadCache cache;
    constexpr int kThreads = 8;
    std::vector<std::shared_ptr<const Workload>> got(kThreads);
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; t++)
        pool.emplace_back([&, t] {
            got[t] = cache.artifact("kangaroo", {}, smallScale());
        });
    for (auto &th : pool)
        th.join();
    for (int t = 1; t < kThreads; t++)
        EXPECT_EQ(got[t].get(), got[0].get());
    EXPECT_EQ(cache.builds(), 1u);
}

TEST(WorkloadCacheTest, InstantiateIsIsolatedFromArtifact)
{
    WorkloadCache cache;
    auto pristine = cache.artifact("camel", {}, smallScale());
    Workload run = cache.instantiate("camel", {}, smallScale());

    // A store during one "run" must not leak into the artifact or
    // into a sibling instantiation.
    uint64_t addr = 0x100000;
    uint64_t before = pristine->image.read64(addr);
    run.image.write64(addr, before + 12345);

    EXPECT_EQ(pristine->image.read64(addr), before);
    Workload sibling = cache.instantiate("camel", {}, smallScale());
    EXPECT_EQ(sibling.image.read64(addr), before);
    EXPECT_EQ(cache.builds(), 1u);
}

TEST(WorkloadCacheTest, UnknownSpecThrowsAndIsNotCached)
{
    WorkloadCache cache;
    EXPECT_THROW(cache.artifact("no-such-benchmark"), FatalError);
    // The failed slot is forgotten: a retry re-attempts the build
    // rather than replaying a stale error, and nothing is resident.
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_THROW(cache.artifact("no-such-benchmark"), FatalError);
    EXPECT_EQ(cache.builds(), 0u);
}

TEST(WorkloadCacheTest, ClearDropsArtifacts)
{
    WorkloadCache cache;
    cache.artifact("camel", {}, smallScale());
    EXPECT_EQ(cache.size(), 1u);
    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
    cache.artifact("camel", {}, smallScale());
    EXPECT_EQ(cache.builds(), 2u);
}

// ---- shared --ff-insts prefix snapshots ----

TEST(FfPrefixTest, SnapshotMatchesAnInPlacePrefix)
{
    WorkloadCache cache;
    Workload own = cache.instantiate("camel", {}, smallScale());
    FfPrefix want = runFfPrefix(own, 5000, 512);

    auto snap = cache.prefix("camel", {}, smallScale(), 5000, 512);
    EXPECT_EQ(snap->executed, 5000u);
    EXPECT_EQ(snap->state.pc, want.state.pc);
    EXPECT_EQ(snap->state.regs, want.state.regs);
    ASSERT_TRUE(snap->digest && want.digest);
    EXPECT_EQ(snap->digest->record(), want.digest->record());
    EXPECT_FALSE(snap->delta.empty());
    EXPECT_TRUE(want.delta.empty());

    // The delta turns a pristine copy into the in-place image.
    Workload fresh = cache.instantiate("camel", {}, smallScale());
    fresh.image.apply(snap->delta);
    EXPECT_TRUE(fresh.image.diff(own.image).empty());
    EXPECT_TRUE(own.image.diff(fresh.image).empty());
}

TEST(FfPrefixTest, BuiltOncePerKeyEvenUnderConcurrency)
{
    WorkloadCache cache;
    constexpr int kThreads = 8;
    std::vector<std::shared_ptr<const FfPrefix>> got(kThreads);
    std::vector<int> built(kThreads, 0);
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; t++)
        pool.emplace_back([&, t] {
            bool b = false;
            got[t] = cache.prefix("kangaroo", {}, smallScale(), 3000, 0,
                                  nullptr, &b);
            built[t] = b;
        });
    for (auto &th : pool)
        th.join();
    int builders = 0;
    for (int t = 0; t < kThreads; t++) {
        EXPECT_EQ(got[t].get(), got[0].get());
        builders += built[t];
    }
    EXPECT_EQ(builders, 1);
    EXPECT_EQ(cache.prefixBuilds(), 1u);
    EXPECT_FALSE(got[0]->digest);

    // ff_insts and the digest interval are part of the key.
    cache.prefix("kangaroo", {}, smallScale(), 3000, 0);
    cache.prefix("kangaroo", {}, smallScale(), 4000, 0);
    cache.prefix("kangaroo", {}, smallScale(), 3000, 1024);
    EXPECT_EQ(cache.prefixBuilds(), 3u);
    EXPECT_EQ(cache.builds(), 1u);
}

TEST(FfPrefixTest, BuilderRunsInsideTheCallersWorkload)
{
    WorkloadCache cache;
    Workload work = cache.instantiate("camel", {}, smallScale());
    bool built = false;
    auto snap = cache.prefix("camel", {}, smallScale(), 2000, 0, &work,
                             &built);
    EXPECT_TRUE(built);
    // The caller's copy is now post-prefix; applying the delta again
    // is a no-op.
    Workload applied = cache.instantiate("camel", {}, smallScale());
    applied.image.apply(snap->delta);
    EXPECT_TRUE(work.image.diff(applied.image).empty());
    work.image.apply(snap->delta);
    EXPECT_TRUE(work.image.diff(applied.image).empty());
    // The artifact itself is untouched.
    Workload rebuilt = makeWorkload("camel", {}, smallScale());
    EXPECT_TRUE(cache.artifact("camel", {}, smallScale())
                    ->image.diff(rebuilt.image)
                    .empty());

    bool again = true;
    cache.prefix("camel", {}, smallScale(), 2000, 0, &work, &again);
    EXPECT_FALSE(again);
}

TEST(FfPrefixTest, HaltInsidePrefixIsASnapshotNotAnError)
{
    WorkloadCache cache;
    auto snap = cache.prefix("camel", {}, smallScale(), 1ull << 40, 0);
    EXPECT_LT(snap->executed, 1ull << 40);
    EXPECT_TRUE(snap->state.halted);
}

TEST(FfPrefixTest, ClearDropsSnapshots)
{
    WorkloadCache cache;
    cache.prefix("camel", {}, smallScale(), 1000, 0);
    cache.clear();
    cache.prefix("camel", {}, smallScale(), 1000, 0);
    EXPECT_EQ(cache.prefixBuilds(), 2u);
    EXPECT_EQ(cache.builds(), 2u);
}

} // namespace
} // namespace vrsim
