#include "traced.hh"

#include <atomic>
#include <optional>
#include <thread>

#include "core/ooo_core.hh"
#include "mem/hierarchy.hh"
#include "runahead/dvr.hh"
#include "runahead/pre.hh"
#include "runahead/vector_runahead.hh"
#include "sim/digest.hh"

namespace vrbench
{

using namespace vrsim;

void
TimedEngine::onInstruction(const StepInfo &si, const CpuState &after,
                           Cycle cycle)
{
    int64_t t0 = nowNs();
    inner_.onInstruction(si, after, cycle);
    oninst_ns_ += nowNs() - t0;
}

Cycle
TimedEngine::onFullRobStall(Cycle stall_start, Cycle head_fill,
                            const CpuState &frontier, TriggerKind kind)
{
    SpanLog::Scope s(log_, span::kStall);
    return inner_.onFullRobStall(stall_start, head_fill, frontier, kind);
}

namespace
{

/** The engine runWorkload builds for a technique, with typed views
 *  for its statistics. */
struct Engines
{
    std::unique_ptr<RunaheadEngine> engine;
    PreEngine *pre = nullptr;
    VectorRunahead *vr = nullptr;
    DecoupledVectorRunahead *dvr = nullptr;
};

Engines
makeEngines(const RunPoint &p, const SystemConfig &cfg, Workload &w,
            MemoryHierarchy &hier)
{
    Engines e;
    switch (p.technique) {
      case Technique::Pre: {
        auto pre = std::make_unique<PreEngine>(cfg, w.prog, w.image, hier);
        e.pre = pre.get();
        e.engine = std::move(pre);
        break;
      }
      case Technique::Vr: {
        auto vr = std::make_unique<VectorRunahead>(cfg, w.prog, w.image,
                                                   hier);
        e.vr = vr.get();
        e.engine = std::move(vr);
        break;
      }
      case Technique::DvrOffload:
      case Technique::DvrDiscovery:
      case Technique::Dvr: {
        DvrFeatures f = p.technique == Technique::DvrOffload
            ? DvrFeatures::offloadOnly()
            : p.technique == Technique::DvrDiscovery
                ? DvrFeatures::withDiscovery()
                : DvrFeatures::full();
        if (p.features)
            f = *p.features;
        auto dvr = std::make_unique<DecoupledVectorRunahead>(
            cfg, w.prog, w.image, hier, f);
        e.dvr = dvr.get();
        e.engine = std::move(dvr);
        break;
      }
      default:
        break;
    }
    return e;
}

// Field-wise window sums, as runWorkload accumulates sampled windows.
void
accumulate(CoreStats &into, const CoreStats &win)
{
    into.instructions += win.instructions;
    into.cycles += win.cycles;
    into.loads += win.loads;
    into.stores += win.stores;
    into.branches += win.branches;
    into.mispredicts += win.mispredicts;
    into.rob_stall_cycles += win.rob_stall_cycles;
    into.full_rob_stall_events += win.full_rob_stall_events;
    into.runahead_commit_stall += win.runahead_commit_stall;
    into.btb_misses += win.btb_misses;
    into.icache_misses += win.icache_misses;
    into.stall_fetch += win.stall_fetch;
    into.stall_iq += win.stall_iq;
    into.stall_lq += win.stall_lq;
    into.stall_sq += win.stall_sq;
}

void
accumulate(MemStats &into, const MemStats &win)
{
    into.demand_accesses += win.demand_accesses;
    into.demand_l1_hits += win.demand_l1_hits;
    into.demand_l2_hits += win.demand_l2_hits;
    into.demand_l3_hits += win.demand_l3_hits;
    into.demand_mem += win.demand_mem;
    into.demand_latency_sum += win.demand_latency_sum;
    for (size_t i = 0; i < win.dram_by_requester.size(); i++)
        into.dram_by_requester[i] += win.dram_by_requester[i];
    into.pf_lines_filled += win.pf_lines_filled;
    into.pf_used_l1 += win.pf_used_l1;
    into.pf_used_l2 += win.pf_used_l2;
    into.pf_used_l3 += win.pf_used_l3;
    into.pf_used_inflight += win.pf_used_inflight;
}

/** The body of runWorkload with spans at the layer calls. */
SimResult
simulateTraced(const RunPoint &p, WorkloadCache &cache, TracedCell &tc)
{
    SpanLog &log = tc.spans;
    uint32_t inst = log.begin(span::kInstantiate);
    Workload w = cache.instantiate(p.spec, p.gscale, p.hscale);
    log.end(inst);

    SystemConfig cfg = p.cfg;
    cfg.technique = p.technique;
    const SamplingPlan &sampling = p.sampling;
    sampling.validate();
    if (sampling.sampling() && p.warmup)
        fatal("--sample and --warmup are mutually exclusive");
    MemoryHierarchy hier(cfg, w.image);
    if (p.technique == Technique::Imp)
        hier.enableImp();
    Engines e = makeEngines(p, cfg, w, hier);
    std::optional<TimedEngine> timed;
    if (e.engine)
        timed.emplace(*e.engine, log);
    OooCore core(cfg, w.prog, w.image, hier, timed ? &*timed : nullptr);
    const uint64_t budget = p.max_insts ? p.max_insts : w.suggested_insts;
    std::unique_ptr<StateDigest> digest;
    if (cfg.collect_digest) {
        digest = std::make_unique<StateDigest>(cfg.digest_interval);
        core.setDigest(digest.get());
    }

    SimResult res;
    res.workload = w.name;
    res.technique = p.technique;
    MemStats warm_mem;
    uint64_t warm_busy = 0;
    uint64_t warm_probes = 0;
    bool sampled_mem = false;
    auto snap_warm = [&] {
        warm_mem = hier.stats();
        warm_busy = hier.l1Mshrs().busyIntegral();
        warm_probes = hier.calendarProbes();
    };
    auto detailed = [&](auto &&run) {
        int64_t t0 = nowNs();
        uint32_t id = log.begin(span::kDetailed);
        CoreStats s = run();
        log.end(id);
        res.host_detailed_seconds += double(nowNs() - t0) * 1e-9;
        return s;
    };
    const int64_t t0 = nowNs();
    if (!sampling.enabled()) {
        res.core = detailed(
            [&] { return core.run(w.init, budget, p.warmup, snap_warm); });
    } else {
        CpuState state = w.init;
        Cycle clock = 0;
        if (sampling.ff_insts) {
            int64_t f0 = nowNs();
            uint32_t id = log.begin(span::kFf);
            uint64_t done = core.fastForward(state, sampling.ff_insts,
                                             clock, /*warm=*/false);
            log.end(id);
            res.host_ff_seconds += double(nowNs() - f0) * 1e-9;
            tc.ff_insts += done;
            if (done < sampling.ff_insts)
                fatal("workload halted inside the --ff-insts prefix");
        }
        if (!sampling.sampling()) {
            SampleSummary ss;
            ss.ff_insts = sampling.ff_insts;
            res.sample = ss;
            res.core = detailed([&] {
                return core.runFrom(state, budget, p.warmup, clock,
                                    snap_warm);
            });
        } else {
            SampleSummary ss;
            ss.ff_insts += sampling.ff_insts;
            const uint64_t periods = budget / sampling.period;
            if (periods == 0)
                fatal("--sample period exceeds the instruction budget");
            const uint64_t ff_per_period =
                sampling.period - sampling.detail - sampling.warm;
            CoreStats total;
            MemStats mem_total;
            uint64_t busy_total = 0;
            for (uint64_t i = 0; i < periods && !state.halted; i++) {
                if (ff_per_period) {
                    int64_t f0 = nowNs();
                    uint32_t id = log.begin(span::kWarmFf);
                    uint64_t done = core.fastForward(
                        state, ff_per_period, clock, /*warm=*/true);
                    log.end(id);
                    res.host_ff_seconds += double(nowNs() - f0) * 1e-9;
                    ss.ff_insts += done;
                    tc.warm_ff_insts += done;
                    if (state.halted)
                        break;
                }
                MemStats wm;
                uint64_t wb = 0;
                uint64_t wp = 0;
                bool snapped = false;
                auto snap_win = [&] {
                    wm = hier.stats();
                    wb = hier.l1Mshrs().busyIntegral();
                    wp = hier.calendarProbes();
                    snapped = true;
                };
                if (sampling.warm == 0)
                    snap_win();
                CoreStats win = detailed([&] {
                    return core.runFrom(state,
                                        sampling.warm + sampling.detail,
                                        sampling.warm, clock, snap_win);
                });
                if (!snapped)
                    break;
                ss.warm_insts += sampling.warm;
                accumulate(total, win);
                accumulate(mem_total,
                           hier.stats().since(wm, cfg.invariant_checks));
                busy_total += hier.l1Mshrs().busyIntegral() - wb;
                tc.calendar_probes += hier.calendarProbes() - wp;
                if (!state.halted && win.instructions == sampling.detail) {
                    double cpi =
                        double(win.cycles) / double(win.instructions);
                    ss.cpi_sum += cpi;
                    ss.cpi_sumsq += cpi * cpi;
                    ss.intervals++;
                }
            }
            res.core = total;
            res.mem = mem_total;
            res.mlp = total.cycles
                          ? double(busy_total) / double(total.cycles)
                          : 0.0;
            res.sample = ss;
            sampled_mem = true;
        }
    }
    res.host_seconds = double(nowNs() - t0) * 1e-9;
    if (!sampled_mem) {
        res.mem = hier.stats().since(warm_mem, cfg.invariant_checks);
        uint64_t busy = hier.l1Mshrs().busyIntegral() - warm_busy;
        res.mlp = res.core.cycles
                      ? double(busy) / double(res.core.cycles)
                      : 0.0;
        tc.calendar_probes = hier.calendarProbes() - warm_probes;
    }
    if (e.pre)
        res.pre = e.pre->stats();
    if (e.vr)
        res.vr = e.vr->stats();
    if (e.dvr)
        res.dvr = e.dvr->stats();
    if (digest)
        res.digest = digest->record();
    if (timed)
        tc.oninst_s = timed->oninstSeconds();
    return res;
}

TracedCell
runTracedCell(const RunPoint &p, WorkloadCache &cache, uint32_t cell)
{
    TracedCell tc;
    tc.spans = SpanLog(cell);
    tc.result = runGuarded(p.spec, p.technique,
                           [&] { return simulateTraced(p, cache, tc); });
    return tc;
}

} // namespace

std::vector<TracedCell>
runTracedSweep(const std::vector<RunPoint> &points, WorkloadCache &cache,
               unsigned workers)
{
    std::vector<TracedCell> cells(points.size());
    std::atomic<size_t> next{0};
    auto worker = [&] {
        for (size_t i; (i = next.fetch_add(1)) < points.size();)
            cells[i] = runTracedCell(points[i], cache, uint32_t(i));
    };
    std::vector<std::thread> pool;
    for (unsigned t = 1; t < workers; t++)
        pool.emplace_back(worker);
    worker();
    for (std::thread &t : pool)
        t.join();
    return cells;
}

void
constructCell(const RunPoint &p, WorkloadCache &cache)
{
    Workload w = cache.instantiate(p.spec, p.gscale, p.hscale);
    SystemConfig cfg = p.cfg;
    cfg.technique = p.technique;
    MemoryHierarchy hier(cfg, w.image);
    if (p.technique == Technique::Imp)
        hier.enableImp();
    Engines e = makeEngines(p, cfg, w, hier);
    OooCore core(cfg, w.prog, w.image, hier, e.engine.get());
}

DigestRecord
functionalDigest(const RunPoint &p, WorkloadCache &cache)
{
    Workload w = cache.instantiate(p.spec, p.gscale, p.hscale);
    SystemConfig cfg = p.cfg;
    cfg.technique = Technique::OoO;
    MemoryHierarchy hier(cfg, w.image);
    OooCore core(cfg, w.prog, w.image, hier);
    StateDigest digest(cfg.digest_interval);
    core.setDigest(&digest);
    CpuState state = w.init;
    Cycle clock = 0;
    uint64_t budget = p.max_insts ? p.max_insts : w.suggested_insts;
    if (p.sampling.sampling())
        budget -= budget % p.sampling.period;
    core.fastForward(state, p.sampling.ff_insts + budget, clock,
                     /*warm=*/false);
    return digest.record();
}

} // namespace vrbench
