/**
 * @file
 * Tests for the event-driven cycle-skipping calendar
 * (sim/event_calendar.hh) and its IntervalResource facade: the skip
 * structure must return bit-identical placements to the linear
 * reference scan in every mode, an all-stalled backlog must be
 * jumped rather than polled (the probe-count bound), and horizon
 * retirement must free history exactly and trap allocations below
 * the horizon.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "mem/interval_resource.hh"
#include "sim/event_calendar.hh"

namespace vrsim
{
namespace
{

/** Restore the process-wide skip mode when a test scope ends. */
struct SkipMode
{
    explicit SkipMode(bool on) { EventCalendar::setSkipEnabled(on); }
    ~SkipMode() { EventCalendar::setSkipEnabled(true); }
};

/** Deterministic allocation workload shared by the mode-equivalence
 *  tests: bursts at a crawling base cycle, with far-future and
 *  far-past reservations interleaved (the non-chronological pattern
 *  the runahead engines produce). */
std::vector<std::pair<Cycle, Cycle>>
mixedSequence(size_t n)
{
    std::vector<std::pair<Cycle, Cycle>> seq;
    uint64_t s = 0x9E3779B97F4A7C15ull;
    Cycle base = 0;
    for (size_t i = 0; i < n; i++) {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        base += s % 3;                       // crawling dispatch point
        Cycle earliest = base + s % 4096;    // some far ahead
        Cycle duration = 1 + (s >> 8) % 40;
        seq.emplace_back(earliest, duration);
    }
    return seq;
}

TEST(EventCalendarTest, SkipMatchesLinearReferencePlacements)
{
    for (uint32_t shift : {0u, 3u}) {
        for (uint32_t cap : {1u, 2u, 8u}) {
            auto seq = mixedSequence(3000);
            std::vector<Cycle> lin, skp;
            {
                SkipMode m(false);
                IntervalResource r(cap, shift);
                for (auto [e, d] : seq)
                    lin.push_back(r.allocate(e, d));
            }
            {
                SkipMode m(true);
                IntervalResource r(cap, shift);
                for (auto [e, d] : seq)
                    skp.push_back(r.allocate(e, d));
            }
            ASSERT_EQ(lin, skp) << "cap=" << cap << " shift=" << shift;
        }
    }
}

TEST(EventCalendarTest, PlacementsMatchPlainFirstFitAcrossChunks)
{
    // A plain first-fit over a flat occupancy vector, independent of
    // the chunking, the skip pointers and the range scans: a start is
    // infeasible iff its span holds a full bucket, and every start up
    // to that bucket spans it too. Reservations up to ~2.5 chunks long
    // make spans cross chunk boundaries.
    for (uint32_t shift : {0u, 2u}) {
        for (uint32_t cap : {1u, 3u}) {
            for (bool skip : {true, false}) {
                SkipMode m(skip);
                IntervalResource r(cap, shift);
                std::vector<uint32_t> used;
                uint64_t s = 0x2545F4914F6CDD1Dull;
                for (int i = 0; i < 600; i++) {
                    s ^= s << 13;
                    s ^= s >> 7;
                    s ^= s << 17;
                    Cycle earliest = Cycle(i) * 40 + s % 20000;
                    Cycle duration = s % 5 == 0 ? 1 + (s >> 20) % 10000
                                                : 1 + (s >> 20) % 30;
                    Cycle b = earliest >> shift;
                    Cycle start, last;
                    while (true) {
                        start = std::max(earliest, b << shift);
                        last = (start + duration - 1) >> shift;
                        if (used.size() <= last)
                            used.resize(last + 1, 0);
                        Cycle x = b;
                        while (x <= last && used[x] < cap)
                            x++;
                        if (x > last)
                            break;
                        b = x + 1;
                    }
                    for (Cycle x = b; x <= last; x++)
                        used[x]++;
                    ASSERT_EQ(r.allocate(earliest, duration), start)
                        << "i=" << i << " cap=" << cap
                        << " shift=" << shift << " skip=" << skip;
                }
                for (Cycle x = 0; x < used.size(); x++)
                    ASSERT_EQ(r.busyAt(x << shift), used[x]) << x;
            }
        }
    }
}

TEST(EventCalendarTest, ModeResolvedAtConstruction)
{
    SkipMode m(false);
    IntervalResource linear(1, 0);
    EventCalendar::setSkipEnabled(true);
    IntervalResource skipping(1, 0);
    linear.allocate(0, 1);
    skipping.allocate(0, 1);
    // Identical placements either way; only the probe accounting
    // reveals the mode, and each instance keeps the mode it was
    // built with.
    EXPECT_EQ(linear.allocate(0, 1), 1u);
    EXPECT_EQ(skipping.allocate(0, 1), 1u);
}

TEST(EventCalendarTest, AllStalledBacklogIsSkippedNotPolled)
{
    // The tentpole regression guard: with every bucket up to the
    // backlog tail full, a linear scan pays O(backlog) probes per
    // allocation (quadratic overall); the skip structure must stay
    // near-constant per allocation. 2000 capacity-1 reservations
    // from the same start cycle model a fully-stalled window backed
    // up behind one resource.
    const int N = 2000;
    uint64_t probes_linear, probes_skip;
    {
        SkipMode m(false);
        IntervalResource r(1, 0);
        for (int i = 0; i < N; i++)
            r.allocate(0, 1);
        probes_linear = r.probes();
    }
    {
        SkipMode m(true);
        IntervalResource r(1, 0);
        for (int i = 0; i < N; i++)
            r.allocate(0, 1);
        probes_skip = r.probes();
        EXPECT_GT(r.skips(), 0u);
    }
    // Linear: sum_i i probes ~ N^2/2. Skip: O(1) amortized per
    // allocation (union-find path compression).
    EXPECT_GE(probes_linear, uint64_t(N) * N / 4);
    EXPECT_LE(probes_skip, uint64_t(N) * 8);
    EXPECT_LT(probes_skip * 50, probes_linear);
}

TEST(EventCalendarTest, RetireBeforeFreesAndTraps)
{
    EventCalendar cal(1);
    cal.fill(0, 10);
    cal.fill(100000, 100001);
    EXPECT_EQ(cal.at(5), 1u);
    // Retire everything below bucket 100000 (whole chunks only).
    cal.retireBefore(100000);
    EXPECT_EQ(cal.at(5), 0u);          // history gone, reads as free
    EXPECT_EQ(cal.at(100000), 1u);     // live chunk untouched
    // Allocating below the horizon is a contract violation, not a
    // silent mis-timing.
    EXPECT_THROW(cal.nextFree(5), PanicError);
    EXPECT_THROW(cal.fill(5, 6), PanicError);
    // At/above the horizon still works.
    EXPECT_EQ(cal.nextFree(100000), 100002u);
}

TEST(EventCalendarTest, RetireIsPlacementNeutralAboveHorizon)
{
    // Same allocation stream with and without interleaved retirement
    // must place identically at/above the horizon.
    auto run = [](bool retire) {
        IntervalResource r(2, 0);
        std::vector<Cycle> got;
        for (int i = 0; i < 500; i++) {
            Cycle base = Cycle(i) * 40;
            got.push_back(r.allocate(base + 7, 25));
            got.push_back(r.allocate(base, 13));
            if (retire && i % 50 == 0 && base > 9000)
                r.retireBefore(base - 9000);
        }
        return got;
    };
    EXPECT_EQ(run(false), run(true));
}

TEST(EventCalendarTest, ChunkBoundarySpansAreExact)
{
    // Reservations straddling chunk boundaries must behave exactly
    // like mid-chunk ones.
    const Cycle B = EventCalendar::CHUNK_SIZE;  // first boundary
    IntervalResource r(1, 0);
    EXPECT_EQ(r.allocate(B - 3, 6), B - 3);     // straddles
    EXPECT_EQ(r.allocate(B - 3, 6), B + 3);     // pushed past it
    EXPECT_EQ(r.busyAt(B - 1), 1u);
    EXPECT_EQ(r.busyAt(B + 3), 1u);
}

TEST(EventCalendarTest, EnvDefaultIsSkipping)
{
    // Unless VRSIM_CYCLE_SKIP=0 is exported (the documented linear
    // fallback), calendars skip.
    SkipMode m(true);
    EventCalendar cal(1);
    EXPECT_TRUE(cal.skipping());
}

} // namespace
} // namespace vrsim
