/**
 * @file
 * Tests for the sparse functional memory image.
 */

#include <gtest/gtest.h>

#include "isa/memory_image.hh"

namespace vrsim
{
namespace
{

TEST(MemoryImageTest, UnbackedReadsZero)
{
    MemoryImage m;
    EXPECT_EQ(m.read64(0xDEADBEEF000), 0u);
    EXPECT_EQ(m.read32(0x123456), 0u);
    EXPECT_EQ(m.residentPages(), 0u);
}

TEST(MemoryImageTest, RoundTrip64)
{
    MemoryImage m;
    m.write64(0x1000, 0x0123456789ABCDEFull);
    EXPECT_EQ(m.read64(0x1000), 0x0123456789ABCDEFull);
}

TEST(MemoryImageTest, RoundTrip32AndEndianOverlap)
{
    MemoryImage m;
    m.write64(0x2000, 0x1122334455667788ull);
    EXPECT_EQ(m.read32(0x2000), 0x55667788u);   // little endian
    EXPECT_EQ(m.read32(0x2004), 0x11223344u);
    m.write32(0x2000, 0xAABBCCDDu);
    EXPECT_EQ(m.read64(0x2000), 0x11223344AABBCCDDull);
}

TEST(MemoryImageTest, CrossPageAccess)
{
    MemoryImage m;
    uint64_t boundary = MemoryImage::PAGE_SIZE - 4;
    m.write64(boundary, 0xCAFEBABE12345678ull);
    EXPECT_EQ(m.read64(boundary), 0xCAFEBABE12345678ull);
    EXPECT_EQ(m.residentPages(), 2u);
}

TEST(MemoryImageTest, FloatRoundTrip)
{
    MemoryImage m;
    m.writeF64(0x3000, 3.14159);
    EXPECT_DOUBLE_EQ(m.readF64(0x3000), 3.14159);
    m.writeF64(0x3008, -0.0);
    EXPECT_DOUBLE_EQ(m.readF64(0x3008), -0.0);
}

TEST(MemoryImageTest, SparseFootprintTracksPages)
{
    MemoryImage m;
    m.write64(0, 1);
    m.write64(10 * MemoryImage::PAGE_SIZE, 1);
    EXPECT_EQ(m.residentPages(), 2u);
    EXPECT_EQ(m.footprintBytes(), 2 * MemoryImage::PAGE_SIZE);
}

TEST(MemoryImageTest, HighAddressesWork)
{
    MemoryImage m;
    uint64_t addr = 0xFFFF'FFFF'0000ull;
    m.write64(addr, 42);
    EXPECT_EQ(m.read64(addr), 42u);
}

TEST(MemoryImageTest, DeltaRoundTripsChangedAndNewPages)
{
    const uint64_t P = MemoryImage::PAGE_SIZE;
    MemoryImage base;
    for (uint64_t pg = 0; pg < 4; pg++)
        base.write64(pg * P + 8, 100 + pg);

    MemoryImage after = base;
    after.write64(1 * P + 16, 7);       // changed page
    after.write64(3 * P + 8, 103);      // rewritten with the same value
    after.write64(9 * P, 0xABCD);       // new page
    after.write64(2 * P - 4, ~0ull);    // straddles pages 1 and 2

    MemoryImage::Delta d = after.diff(base);
    std::vector<uint64_t> pages;
    for (const auto &[no, page] : d)
        pages.push_back(no);
    // Only created or byte-changed pages, ascending.
    EXPECT_EQ(pages, (std::vector<uint64_t>{1, 2, 9}));

    MemoryImage copy = base;
    (void)copy.read64(1 * P + 16);      // warm the page memo
    copy.apply(d);
    EXPECT_TRUE(copy.diff(after).empty());
    EXPECT_TRUE(after.diff(copy).empty());
    EXPECT_EQ(copy.read64(1 * P + 16), 7u);
    EXPECT_EQ(copy.read64(9 * P), 0xABCDu);
    EXPECT_EQ(copy.residentPages(), after.residentPages());

    // Idempotent: a second apply changes nothing.
    copy.apply(d);
    EXPECT_TRUE(copy.diff(after).empty());
    // An unchanged image has an empty delta.
    EXPECT_TRUE(base.diff(base).empty());
}

} // namespace
} // namespace vrsim
