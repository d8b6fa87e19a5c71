#include "workloads/workload_cache.hh"

#include <chrono>

#include "obs/self_profile.hh"
#include "sim/logging.hh"

namespace vrsim
{

std::string
WorkloadCache::key(const std::string &spec, const GraphScale &gscale,
                   const HpcDbScale &hscale)
{
    return spec + "|n=" + std::to_string(gscale.nodes) +
           "|d=" + std::to_string(gscale.avg_degree) +
           "|gs=" + std::to_string(gscale.seed) +
           "|e=" + std::to_string(hscale.elements) +
           "|hs=" + std::to_string(hscale.seed);
}

namespace
{

/**
 * Build-once slot lookup shared by artifacts and prefix snapshots:
 * the first requester of @p k runs @p build outside the lock while
 * later ones block on its future. A failed build rethrows to every
 * waiter and forgets the slot, so a later retry (e.g. after a graph
 * file appears) is not pinned to the stale error.
 */
template <class T, class Build>
std::shared_ptr<const T>
buildOnce(std::mutex &mutex,
          std::map<std::string,
                   std::shared_future<std::shared_ptr<const T>>> &slots,
          const std::string &k, Build build, bool *built_here)
{
    if (built_here)
        *built_here = false;
    std::promise<std::shared_ptr<const T>> promise;
    {
        std::unique_lock<std::mutex> lock(mutex);
        auto it = slots.find(k);
        if (it != slots.end()) {
            // Wait outside the lock: a slow build of this key must not
            // stall unrelated keys.
            auto slot = it->second;
            lock.unlock();
            return slot.get();  // built, building, or failed
        }
        slots.emplace(k, promise.get_future().share());
    }
    try {
        std::shared_ptr<const T> built = build();
        promise.set_value(built);
        if (built_here)
            *built_here = true;
        return built;
    } catch (...) {
        promise.set_exception(std::current_exception());
        std::lock_guard<std::mutex> lock(mutex);
        slots.erase(k);
        throw;
    }
}

} // namespace

FfPrefix
runFfPrefix(Workload &w, uint64_t ff_insts, uint64_t digest_interval)
{
    FfPrefix p;
    p.ff_insts = ff_insts;
    p.digest_interval = digest_interval;
    p.state = w.init;
    StateDigest *digest = nullptr;
    if (digest_interval)
        digest = &p.digest.emplace(digest_interval);
    p.executed = fastForward(w.prog, p.state, w.image, ff_insts, digest);
    return p;
}

std::shared_ptr<const Workload>
WorkloadCache::artifact(const std::string &spec,
                        const GraphScale &gscale,
                        const HpcDbScale &hscale)
{
    return buildOnce(mutex_, slots_, key(spec, gscale, hscale), [&] {
        SelfProfiler::PhaseTimer pt =
            SelfProfiler::process().phase("workload-build");
        auto built = std::make_shared<const Workload>(
            makeWorkload(spec, gscale, hscale));
        builds_.fetch_add(1);
        return built;
    }, nullptr);
}

std::shared_ptr<const FfPrefix>
WorkloadCache::prefix(const std::string &spec, const GraphScale &gscale,
                      const HpcDbScale &hscale, uint64_t ff_insts,
                      uint64_t digest_interval, Workload *work,
                      bool *built_here)
{
    const std::string k = key(spec, gscale, hscale) +
                          "|ff=" + std::to_string(ff_insts) +
                          "|di=" + std::to_string(digest_interval);
    return buildOnce(mutex_, prefixes_, k, [&] {
        std::shared_ptr<const Workload> base =
            artifact(spec, gscale, hscale);
        SelfProfiler::PhaseTimer pt =
            SelfProfiler::process().phase("simulate");
        auto t0 = std::chrono::steady_clock::now();
        std::optional<Workload> own;
        if (!work)
            work = &own.emplace(*base);
        auto p = std::make_shared<FfPrefix>(
            runFfPrefix(*work, ff_insts, digest_interval));
        p->delta = work->image.diff(base->image);
        p->build_seconds = std::chrono::duration<double>(
            std::chrono::steady_clock::now() - t0).count();
        prefix_builds_.fetch_add(1);
        return std::shared_ptr<const FfPrefix>(std::move(p));
    }, built_here);
}

Workload
WorkloadCache::instantiate(const std::string &spec,
                           const GraphScale &gscale,
                           const HpcDbScale &hscale)
{
    return *artifact(spec, gscale, hscale);
}

size_t
WorkloadCache::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return slots_.size();
}

void
WorkloadCache::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    slots_.clear();
    prefixes_.clear();
}

WorkloadCache &
WorkloadCache::process()
{
    static WorkloadCache cache;
    return cache;
}

} // namespace vrsim
