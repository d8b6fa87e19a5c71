/**
 * @file
 * Tests for the Vector Issue Register pacing model (paper §4.2.2).
 */

#include <gtest/gtest.h>

#include "runahead/vir.hh"
#include "sim/rng.hh"

namespace vrsim
{
namespace
{

RunaheadConfig
cfg()
{
    return RunaheadConfig{};   // 16 x 8 lanes
}

TEST(VirTest, ScalarInstructionTakesOneSlot)
{
    VectorIssueRegister vir(cfg());
    vir.start(100);
    LaneMask m;
    for (int i = 0; i < 128; i++)
        m.set(i);
    Cycle t = vir.issue(m, false);
    EXPECT_EQ(t, 100u);
    EXPECT_EQ(vir.now(), 101u);
}

TEST(VirTest, FullVectorTakesSixteenCopies)
{
    VectorIssueRegister vir(cfg());
    vir.start(0);
    LaneMask m;
    for (int i = 0; i < 128; i++)
        m.set(i);
    Cycle t = vir.issue(m, true);
    EXPECT_EQ(t, 0u);
    EXPECT_EQ(vir.now(), 16u);   // 128 lanes / 8 per copy
    EXPECT_EQ(vir.issuedCopies(), 16u);
}

TEST(VirTest, PartialMaskRoundsUp)
{
    VectorIssueRegister vir(cfg());
    vir.start(0);
    LaneMask m;
    for (int i = 0; i < 20; i++)
        m.set(i);
    vir.issue(m, true);
    EXPECT_EQ(vir.now(), 3u);   // ceil(20 / 8)
}

TEST(VirTest, CopyOfMapsLanesToCopies)
{
    VectorIssueRegister vir(cfg());
    LaneMask m;
    for (int i = 0; i < 128; i++)
        m.set(i);
    EXPECT_EQ(vir.copyOf(0, m), 0u);
    EXPECT_EQ(vir.copyOf(7, m), 0u);
    EXPECT_EQ(vir.copyOf(8, m), 1u);
    EXPECT_EQ(vir.copyOf(127, m), 15u);
}

TEST(VirTest, CopyOfCountsOnlyActiveLanes)
{
    VectorIssueRegister vir(cfg());
    LaneMask m;
    // Only even lanes active: lane 16 is the 9th active lane.
    for (int i = 0; i < 128; i += 2)
        m.set(i);
    EXPECT_EQ(vir.copyOf(16, m), 1u);
    EXPECT_EQ(vir.copyOf(14, m), 0u);
}

TEST(VirTest, WaitUntilOnlyMovesForward)
{
    VectorIssueRegister vir(cfg());
    vir.start(50);
    vir.waitUntil(40);
    EXPECT_EQ(vir.now(), 50u);
    vir.waitUntil(70);
    EXPECT_EQ(vir.now(), 70u);
}

TEST(VirTest, EmptyMaskStillAdvancesOneSlot)
{
    VectorIssueRegister vir(cfg());
    vir.start(0);
    LaneMask empty;
    vir.issue(empty, true);
    EXPECT_EQ(vir.now(), 1u);
}

TEST(VirTest, CopyOfMatchesLaneLoopOverRandomMasks)
{
    // Property: the popcount form equals the per-lane count it
    // replaced, over random masks of every density and at the lane
    // edges, including across the 128-lane word boundary.
    auto loop = [](uint32_t lane, const LaneMask &m, uint32_t per) {
        uint32_t idx = 0;
        for (uint32_t l = 0; l < lane; l++)
            if (m.test(l))
                ++idx;
        return idx / per;
    };
    Rng rng(0x5eed);
    for (uint32_t per : {1u, 8u, 16u}) {
        RunaheadConfig c;
        c.lanes_per_vector = per;
        VectorIssueRegister vir(c);
        for (int trial = 0; trial < 200; trial++) {
            LaneMask m;
            const uint64_t density = rng.below(101);
            for (unsigned l = 0; l < MAX_LANES; l++)
                if (rng.below(100) < density)
                    m.set(l);
            for (uint32_t lane : {0u, 1u, 63u, 64u, 127u, 128u, 255u,
                                  uint32_t(rng.below(MAX_LANES))})
                ASSERT_EQ(vir.copyOf(lane, m), loop(lane, m, per))
                    << "lane " << lane << " per " << per << " mask "
                    << m.to_string();
        }
    }
}

} // namespace
} // namespace vrsim
