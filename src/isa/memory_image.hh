/**
 * @file
 * The functional memory image: a sparse, page-granular, byte-addressed
 * 64-bit address space holding the workload's data. Timing is modelled
 * separately (src/mem); this class only stores values.
 */

#ifndef VRSIM_ISA_MEMORY_IMAGE_HH
#define VRSIM_ISA_MEMORY_IMAGE_HH

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/logging.hh"

namespace vrsim
{

/**
 * Sparse memory. Unbacked addresses read as zero, which also makes
 * speculative (runahead) wild loads safe by construction.
 *
 * Accesses are strongly page-local (the interpreter walks arrays),
 * so the last page touched is memoized to skip the hash lookup on
 * the hot path. The memo makes even const reads mutating under the
 * hood: a MemoryImage must not be shared between threads. Parallel
 * sweeps already honour that — WorkloadCache hands every run its own
 * private copy of the image, and copies start with a cold memo.
 */
class MemoryImage
{
  public:
    static constexpr uint64_t PAGE_BITS = 16;
    static constexpr uint64_t PAGE_SIZE = 1ull << PAGE_BITS;
    static constexpr uint64_t PAGE_MASK = PAGE_SIZE - 1;

    MemoryImage() = default;
    MemoryImage(const MemoryImage &o) : pages_(o.pages_) {}
    MemoryImage(MemoryImage &&o) noexcept : pages_(std::move(o.pages_)) {}

    MemoryImage &
    operator=(const MemoryImage &o)
    {
        pages_ = o.pages_;
        cached_page_no_ = NO_PAGE;
        cached_page_ = nullptr;
        return *this;
    }

    MemoryImage &
    operator=(MemoryImage &&o) noexcept
    {
        pages_ = std::move(o.pages_);
        cached_page_no_ = NO_PAGE;
        cached_page_ = nullptr;
        return *this;
    }

    uint64_t
    read64(uint64_t addr) const
    {
        uint64_t v = 0;
        readBytes(addr, &v, 8);
        return v;
    }

    uint32_t
    read32(uint64_t addr) const
    {
        uint32_t v = 0;
        readBytes(addr, &v, 4);
        return v;
    }

    void write64(uint64_t addr, uint64_t v) { writeBytes(addr, &v, 8); }
    void write32(uint64_t addr, uint32_t v) { writeBytes(addr, &v, 4); }

    double
    readF64(uint64_t addr) const
    {
        uint64_t bits = read64(addr);
        double d;
        std::memcpy(&d, &bits, 8);
        return d;
    }

    void
    writeF64(uint64_t addr, double d)
    {
        uint64_t bits;
        std::memcpy(&bits, &d, 8);
        write64(addr, bits);
    }

    /** Number of resident pages (for footprint reporting). */
    size_t residentPages() const { return pages_.size(); }

    /** Total resident bytes. */
    uint64_t footprintBytes() const { return pages_.size() * PAGE_SIZE; }

    using Page = std::vector<uint8_t>;

    /**
     * The pages one image holds that a base image lacks or holds with
     * different bytes, in ascending page order (diff()). Applying it
     * to a copy of the base (apply()) reproduces the image exactly,
     * at the cost of the changed pages only.
     */
    using Delta = std::vector<std::pair<uint64_t, Page>>;

    /** What changed relative to @p base. Pages are never removed, so
     *  every page of @p base is also here. Neither image's memo is
     *  touched: concurrent diffs against one shared base are safe. */
    Delta
    diff(const MemoryImage &base) const
    {
        Delta d;
        for (const auto &[no, page] : pages_) {
            auto it = base.pages_.find(no);
            if (it == base.pages_.end() ||
                std::memcmp(it->second.data(), page.data(), PAGE_SIZE))
                d.emplace_back(no, page);
        }
        std::sort(d.begin(), d.end(),
                  [](const auto &a, const auto &b) {
                      return a.first < b.first;
                  });
        return d;
    }

    /** Install every page of @p d (idempotent). */
    void
    apply(const Delta &d)
    {
        for (const auto &[no, page] : d)
            pages_[no] = page;
        cached_page_no_ = NO_PAGE;
        cached_page_ = nullptr;
    }

  private:
    static constexpr uint64_t NO_PAGE = ~0ull;

    const Page *
    findPage(uint64_t page_no) const
    {
        if (page_no == cached_page_no_)
            return cached_page_;
        auto it = pages_.find(page_no);
        if (it == pages_.end())
            return nullptr;
        // unordered_map references are stable across rehash, so the
        // memo survives later insertions.
        cached_page_no_ = page_no;
        cached_page_ = const_cast<Page *>(&it->second);
        return cached_page_;
    }

    Page &
    getPage(uint64_t page_no)
    {
        if (page_no == cached_page_no_)
            return *cached_page_;
        auto it = pages_.find(page_no);
        if (it == pages_.end())
            it = pages_.emplace(page_no, Page(PAGE_SIZE, 0)).first;
        cached_page_no_ = page_no;
        cached_page_ = &it->second;
        return it->second;
    }

    void
    readBytes(uint64_t addr, void *out, size_t n) const
    {
        auto *dst = static_cast<uint8_t *>(out);
        while (n > 0) {
            uint64_t page_no = addr >> PAGE_BITS;
            uint64_t off = addr & PAGE_MASK;
            size_t chunk = std::min<uint64_t>(n, PAGE_SIZE - off);
            if (const Page *p = findPage(page_no))
                std::memcpy(dst, p->data() + off, chunk);
            else
                std::memset(dst, 0, chunk);
            dst += chunk;
            addr += chunk;
            n -= chunk;
        }
    }

    void
    writeBytes(uint64_t addr, const void *in, size_t n)
    {
        auto *src = static_cast<const uint8_t *>(in);
        while (n > 0) {
            uint64_t page_no = addr >> PAGE_BITS;
            uint64_t off = addr & PAGE_MASK;
            size_t chunk = std::min<uint64_t>(n, PAGE_SIZE - off);
            std::memcpy(getPage(page_no).data() + off, src, chunk);
            src += chunk;
            addr += chunk;
            n -= chunk;
        }
    }

    std::unordered_map<uint64_t, Page> pages_;
    mutable uint64_t cached_page_no_ = NO_PAGE;
    mutable Page *cached_page_ = nullptr;
};

} // namespace vrsim

#endif // VRSIM_ISA_MEMORY_IMAGE_HH
