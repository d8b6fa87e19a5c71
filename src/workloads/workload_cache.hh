/**
 * @file
 * Workload build artifact cache: splits workload construction into an
 * immutable build product (µop program + pristine memory image +
 * initial registers) built once per spec+scale, and a cheap per-run
 * instantiation that copies the image so stores cannot leak between
 * runs. A full figure sweep builds each benchmark input once instead
 * of once per grid point.
 *
 * The cache also holds the functional --ff-insts prefix of sampled
 * runs (FfPrefix): a pure fast-forward depends only on the program
 * and the image, never on the technique or the timing model, so every
 * column of a sampled sweep can start from one shared snapshot
 * instead of re-executing the prefix (docs/sampling.md).
 *
 * Thread-safe: concurrent first requests for the same key build the
 * artifact (or snapshot) exactly once (the losers block on the
 * builder's future), so a parallel SweepRunner pool shares one cache
 * without duplicate graph/CSR construction or prefix execution.
 */

#ifndef VRSIM_WORKLOADS_WORKLOAD_CACHE_HH
#define VRSIM_WORKLOADS_WORKLOAD_CACHE_HH

#include <atomic>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "isa/interp.hh"
#include "sim/digest.hh"
#include "workloads/workload.hh"

namespace vrsim
{

/**
 * The architectural state after a workload's pure functional prefix
 * of @p ff_insts instructions (docs/sampling.md, "Shared prefix").
 */
struct FfPrefix
{
    uint64_t ff_insts = 0;         //!< prefix length requested
    uint64_t digest_interval = 0;  //!< 0 = no digest was collected
    CpuState state;                //!< registers/PC after the prefix
    uint64_t executed = 0;         //!< < ff_insts iff the program halted
    std::optional<StateDigest> digest;  //!< hash of the prefix stream
    /** Image pages the prefix created or changed; empty when the
     *  prefix ran in place (runFfPrefix). */
    MemoryImage::Delta delta;
    double build_seconds = 0.0;    //!< host time WorkloadCache::prefix
                                   //!< took to build this snapshot
};

/**
 * The one prefix routine: fast-forward @p w from w.init by up to
 * @p ff_insts instructions in place (its image ends post-prefix),
 * hashing the stream into a StateDigest of @p digest_interval when
 * nonzero. Leaves FfPrefix::delta empty.
 */
FfPrefix runFfPrefix(Workload &w, uint64_t ff_insts,
                     uint64_t digest_interval);

class WorkloadCache
{
  public:
    /**
     * The immutable build artifact for @p spec at the given scales.
     * Built on first request; later requests (from any thread) share
     * the same object. A failed build (unknown spec, unreadable graph
     * file) rethrows its FatalError to every requester.
     */
    std::shared_ptr<const Workload>
    artifact(const std::string &spec, const GraphScale &gscale = {},
             const HpcDbScale &hscale = {});

    /**
     * A private, runnable copy of the artifact: the returned Workload
     * owns its memory image, so stores during simulation never touch
     * the pristine artifact or any sibling run.
     */
    Workload instantiate(const std::string &spec,
                         const GraphScale &gscale = {},
                         const HpcDbScale &hscale = {});

    /** How many artifacts were actually constructed (cache misses). */
    uint64_t builds() const { return builds_.load(); }

    /**
     * The shared --ff-insts prefix snapshot of @p spec, keyed by the
     * artifact key, @p ff_insts and @p digest_interval (0 = no
     * digest). Built once on first request, like artifact(); a
     * workload that halts inside the prefix yields a snapshot with
     * executed < ff_insts, not an error.
     *
     * @p work, when non-null, must be a pristine instantiate() of the
     * same artifact: a caller that ends up building runs the prefix
     * inside it, sparing a second image copy, and leaves it in the
     * post-prefix state. @p built_here reports whether this call
     * built the snapshot (so exactly one run is charged its host
     * time).
     */
    std::shared_ptr<const FfPrefix>
    prefix(const std::string &spec, const GraphScale &gscale,
           const HpcDbScale &hscale, uint64_t ff_insts,
           uint64_t digest_interval, Workload *work = nullptr,
           bool *built_here = nullptr);

    /** How many prefix snapshots were actually built. */
    uint64_t prefixBuilds() const { return prefix_builds_.load(); }

    /** Number of distinct artifacts resident. */
    size_t size() const;

    /** Drop all artifacts and prefix snapshots (tests; scale changes
     *  mid-process). */
    void clear();

    /**
     * The process-wide cache the driver layers use by default, giving
     * "each spec is built once per binary" without threading a cache
     * through every call site.
     */
    static WorkloadCache &process();

    /** Cache key for one spec+scale combination (stable, printable). */
    static std::string key(const std::string &spec,
                           const GraphScale &gscale,
                           const HpcDbScale &hscale);

  private:
    using Slot = std::shared_future<std::shared_ptr<const Workload>>;
    using PrefixSlot =
        std::shared_future<std::shared_ptr<const FfPrefix>>;

    mutable std::mutex mutex_;
    std::map<std::string, Slot> slots_;
    std::map<std::string, PrefixSlot> prefixes_;
    std::atomic<uint64_t> builds_{0};
    std::atomic<uint64_t> prefix_builds_{0};
};

} // namespace vrsim

#endif // VRSIM_WORKLOADS_WORKLOAD_CACHE_HH
