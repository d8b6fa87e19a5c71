#include "driver/simulation.hh"

#include <chrono>
#include <iomanip>
#include <memory>

#include "obs/self_profile.hh"
#include "obs/stats_registry.hh"
#include "obs/trace.hh"
#include "sim/parse.hh"

namespace vrsim
{

void
SamplingPlan::validate() const
{
    if (!sampling()) {
        if (detail || warm)
            fatal("sampling plan has detail/warm windows but no "
                  "period");
        return;
    }
    if (detail == 0)
        fatal("sampling plan needs a nonzero detailed-measure window "
              "(--sample N:M with N > 0)");
    if (detail + warm > period)
        fatal("sampling plan windows exceed the period: detail " +
              std::to_string(detail) + " + warm " +
              std::to_string(warm) + " > period " +
              std::to_string(period));
}

SamplingPlan
SamplingPlan::parse(const std::string &spec)
{
    SamplingPlan p;
    size_t c1 = spec.find(':');
    if (c1 == std::string::npos)
        fatal("--sample wants N:M[:W] (N measured insts per period of "
              "M, W detailed-warm insts), got '" + spec + "'");
    size_t c2 = spec.find(':', c1 + 1);
    p.detail = parseU64("--sample measure window",
                        spec.substr(0, c1).c_str());
    if (c2 == std::string::npos) {
        p.period = parseU64("--sample period",
                            spec.substr(c1 + 1).c_str());
        p.warm = std::min(p.detail, p.period > p.detail
                                        ? p.period - p.detail : 0);
    } else {
        p.period = parseU64(
            "--sample period", spec.substr(c1 + 1, c2 - c1 - 1).c_str());
        p.warm = parseU64("--sample warm window",
                          spec.substr(c2 + 1).c_str());
    }
    p.validate();
    return p;
}

double
SampleSummary::cpiStddev() const
{
    return momentsStddev(cpi_sum, cpi_sumsq, intervals);
}

double
SampleSummary::cpiCi95() const
{
    return momentsCi95(cpi_sum, cpi_sumsq, intervals);
}

const char *
simStatusName(SimStatus s)
{
    switch (s) {
      case SimStatus::Ok: return "ok";
      case SimStatus::Fatal: return "fatal";
      case SimStatus::Panic: return "panic";
      case SimStatus::Hang: return "hang";
      case SimStatus::Diverged: return "diverged";
      case SimStatus::Crashed: return "crashed";
      case SimStatus::TimedOut: return "timedout";
    }
    panic("unknown SimStatus");
}

int
exitCodeForStatus(SimStatus status, int term_signal)
{
    switch (status) {
      case SimStatus::Ok: return 0;
      case SimStatus::Fatal: return 1;
      case SimStatus::Panic:
      case SimStatus::Hang:
      case SimStatus::Diverged: return 70;  // sysexits EX_SOFTWARE
      case SimStatus::TimedOut: return 124; // coreutils `timeout`
      case SimStatus::Crashed:
        // Shell convention: death by signal N surfaces as 128+N, so
        // a SIGSEGV (139) can never alias a taxonomy code above.
        return term_signal > 0 ? 128 + term_signal : 1;
    }
    panic("unknown SimStatus");
}

SimResult
runGuarded(const std::string &workload_name, Technique technique,
           const std::function<SimResult()> &body)
{
    SimResult failed;
    failed.workload = workload_name;
    failed.technique = technique;
    try {
        return body();
    } catch (const FatalError &e) {
        failed.status = SimStatus::Fatal;
        failed.status_message = e.what();
    } catch (const HangError &e) {
        failed.status = SimStatus::Hang;
        failed.status_message = e.what();
    } catch (const PanicError &e) {
        failed.status = SimStatus::Panic;
        failed.status_message = e.what();
    }
    return failed;
}

namespace
{

/** Field-wise sum of per-window core statistics (sampled runs). */
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

/** Field-wise sum of per-window memory statistics (sampled runs). */
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

double
secondsSince(const std::chrono::steady_clock::time_point &t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0).count();
}

} // namespace

uint64_t
prefixDigestInterval(const SystemConfig &cfg)
{
    return cfg.collect_digest ? cfg.digest_interval : 0;
}

SimResult
runWorkload(Workload &w, Technique technique, SystemConfig cfg,
            uint64_t max_insts, uint64_t warmup_insts,
            const DvrFeatures *dvr_features, TraceSink *trace,
            const SamplingPlan &sampling, const FfPrefix *prefix)
{
    cfg.technique = technique;
    sampling.validate();
    if (sampling.sampling() && warmup_insts)
        fatal("--sample and --warmup are mutually exclusive: the "
              "plan's per-window detailed-warm instructions replace "
              "the global warmup");
    MemoryHierarchy hier(cfg, w.image);
    if (technique == Technique::Imp)
        hier.enableImp();

    std::unique_ptr<RunaheadEngine> engine;
    PreEngine *pre = nullptr;
    VectorRunahead *vr = nullptr;
    DecoupledVectorRunahead *dvr = nullptr;
    switch (technique) {
      case Technique::Pre: {
        auto e = std::make_unique<PreEngine>(cfg, w.prog, w.image, hier);
        pre = e.get();
        engine = std::move(e);
        break;
      }
      case Technique::Vr: {
        auto e = std::make_unique<VectorRunahead>(cfg, w.prog, w.image,
                                                  hier);
        vr = e.get();
        engine = std::move(e);
        break;
      }
      case Technique::DvrOffload:
      case Technique::DvrDiscovery:
      case Technique::Dvr: {
        DvrFeatures f = technique == Technique::DvrOffload
            ? DvrFeatures::offloadOnly()
            : technique == Technique::DvrDiscovery
                ? DvrFeatures::withDiscovery()
                : DvrFeatures::full();
        if (dvr_features)
            f = *dvr_features;
        auto e = std::make_unique<DecoupledVectorRunahead>(
            cfg, w.prog, w.image, hier, f);
        dvr = e.get();
        engine = std::move(e);
        break;
      }
      default:
        break;
    }

    OooCore core(cfg, w.prog, w.image, hier, engine.get());
    if (trace) {
        hier.setTraceSink(trace);
        core.setTraceSink(trace);
        if (engine)
            engine->setTraceSink(trace);
    }
    uint64_t budget = max_insts ? max_insts : w.suggested_insts;

    // Differential oracle: hash the committed stream (incl. warmup,
    // which is a timing distinction only — the committed instructions
    // are identical across techniques by construction).
    std::unique_ptr<StateDigest> digest;
    if (cfg.collect_digest) {
        digest = std::make_unique<StateDigest>(cfg.digest_interval);
        core.setDigest(digest.get());
    }

    SimResult res;
    res.workload = w.name;
    res.technique = technique;
    MemStats warm_mem;
    uint64_t warm_busy = 0;
    bool sampled_mem = false; // res.mem/res.mlp set by the sampled loop
    {
        SelfProfiler::PhaseTimer pt =
            SelfProfiler::process().phase("simulate");
        auto t0 = std::chrono::steady_clock::now();
        auto snap_warm = [&] {
            warm_mem = hier.stats();
            warm_busy = hier.l1Mshrs().busyIntegral();
        };
        if (!sampling.enabled()) {
            res.core = core.run(w.init, budget, warmup_insts, snap_warm);
        } else {
            CpuState state = w.init;
            Cycle clock = 0;
            if (sampling.ff_insts) {
                // Pure functional prefix skip: native-loop speed, no
                // warming — the caches/predictors enter the ROI cold
                // and the first detailed-warm window (or --warmup)
                // recovers them. Timing-free, so a snapshot shared
                // across columns is the same state a private
                // execution reaches.
                auto f0 = std::chrono::steady_clock::now();
                FfPrefix own;
                const FfPrefix *pre = prefix;
                if (pre) {
                    panicIfNot(pre->ff_insts == sampling.ff_insts &&
                                   pre->digest_interval ==
                                       prefixDigestInterval(cfg),
                               "prefix snapshot does not match the "
                               "run's --ff-insts or digest interval");
                    w.image.apply(pre->delta);
                } else {
                    own = runFfPrefix(w, sampling.ff_insts,
                                      prefixDigestInterval(cfg));
                    res.host_ff_insts += own.executed;
                    pre = &own;
                }
                res.host_ff_seconds += secondsSince(f0);
                if (pre->executed < sampling.ff_insts)
                    fatal("workload halted after " +
                          std::to_string(pre->executed) +
                          " instructions, inside the --ff-insts " +
                          std::to_string(sampling.ff_insts) +
                          " prefix — nothing left to measure");
                state = pre->state;
                if (digest)
                    *digest = *pre->digest;
            }
            if (!sampling.sampling()) {
                // Fast-forward prefix, then an ordinary full-detail
                // ROI over the remaining budget.
                SampleSummary ss;
                ss.ff_insts = sampling.ff_insts;
                res.sample = ss;
                auto d0 = std::chrono::steady_clock::now();
                res.core = core.runFrom(state, budget, warmup_insts,
                                        clock, snap_warm);
                res.host_detailed_seconds += secondsSince(d0);
            } else {
                // SMARTS interval sampling: per period, functionally
                // fast-forward with cache/BP warming, run a detailed-
                // warm window (stats excluded), then a detailed-
                // measure window whose IPC becomes one observation.
                SampleSummary ss;
                ss.ff_insts += sampling.ff_insts;
                const uint64_t periods = budget / sampling.period;
                if (periods == 0)
                    fatal("--sample period " +
                          std::to_string(sampling.period) +
                          " exceeds the instruction budget " +
                          std::to_string(budget) +
                          " (no interval fits)");
                const uint64_t ff_per_period =
                    sampling.period - sampling.detail - sampling.warm;
                CoreStats total;
                MemStats mem_total;
                uint64_t busy_total = 0;
                for (uint64_t p = 0; p < periods && !state.halted;
                     p++) {
                    if (ff_per_period) {
                        auto f0 = std::chrono::steady_clock::now();
                        uint64_t done = core.fastForward(
                            state, ff_per_period, clock, /*warm=*/true);
                        ss.ff_insts += done;
                        res.host_ff_insts += done;
                        res.host_ff_seconds += secondsSince(f0);
                        if (state.halted)
                            break;
                    }
                    MemStats wm;
                    uint64_t wb = 0;
                    bool snapped = false;
                    auto snap_win = [&] {
                        wm = hier.stats();
                        wb = hier.l1Mshrs().busyIntegral();
                        snapped = true;
                    };
                    if (sampling.warm == 0)
                        snap_win();
                    auto d0 = std::chrono::steady_clock::now();
                    CoreStats win = core.runFrom(
                        state, sampling.warm + sampling.detail,
                        sampling.warm, clock, snap_win);
                    res.host_detailed_seconds += secondsSince(d0);
                    if (!snapped)
                        break; // halted inside the warm window
                    ss.warm_insts += sampling.warm;
                    accumulate(total, win);
                    accumulate(mem_total, hier.stats().since(
                                              wm, cfg.invariant_checks));
                    busy_total +=
                        hier.l1Mshrs().busyIntegral() - wb;
                    // Only complete measure windows enter the CI: a
                    // halted tail has different length and would bias
                    // the variance estimate. The observation is the
                    // window's CPI — with equal-length windows the
                    // mean of per-window CPIs is the unbiased ratio
                    // estimate of the full run's CPI, which a mean of
                    // per-window IPCs is not (SampleSummary docs).
                    if (!state.halted &&
                        win.instructions == sampling.detail) {
                        double cpi = double(win.cycles) /
                                     double(win.instructions);
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
        res.host_seconds = std::chrono::duration<double>(
            std::chrono::steady_clock::now() - t0).count();
        if (!sampling.enabled())
            res.host_detailed_seconds = res.host_seconds;
    }
    SelfProfiler::process().addSimulated(res.core.instructions,
                                         res.core.cycles);
    if (!sampled_mem) {
        res.mem = hier.stats().since(warm_mem, cfg.invariant_checks);
        uint64_t busy = hier.l1Mshrs().busyIntegral() - warm_busy;
        res.mlp = res.core.cycles
                      ? double(busy) / double(res.core.cycles)
                      : 0.0;
    }
    if (pre)
        res.pre = pre->stats();
    if (vr)
        res.vr = vr->stats();
    if (dvr)
        res.dvr = dvr->stats();
    if (digest)
        res.digest = digest->record();
    return res;
}

SimResult
runSimulation(const std::string &spec, Technique technique,
              SystemConfig cfg, const GraphScale &gscale,
              const HpcDbScale &hscale, uint64_t max_insts,
              uint64_t warmup_insts)
{
    Workload w = makeWorkload(spec, gscale, hscale);
    return runWorkload(w, technique, cfg, max_insts, warmup_insts);
}

SimResult
runWorkloadGuarded(Workload &w, Technique technique, SystemConfig cfg,
                   uint64_t max_insts, uint64_t warmup_insts,
                   const SamplingPlan &sampling)
{
    return runGuarded(w.name, technique, [&] {
        return runWorkload(w, technique, cfg, max_insts, warmup_insts,
                           nullptr, nullptr, sampling);
    });
}

SimResult
runSimulationGuarded(const std::string &spec, Technique technique,
                     SystemConfig cfg, const GraphScale &gscale,
                     const HpcDbScale &hscale, uint64_t max_insts,
                     uint64_t warmup_insts)
{
    return runGuarded(spec, technique, [&] {
        return runSimulation(spec, technique, cfg, gscale, hscale,
                             max_insts, warmup_insts);
    });
}

std::vector<std::string>
gapBenchmarkSpecs()
{
    std::vector<std::string> specs;
    for (const auto &k : gapKernelNames())
        for (const char *in : {"KR", "LJN", "ORK", "TW", "UR"})
            specs.push_back(k + "/" + in);
    return specs;
}

std::vector<std::string>
allBenchmarkSpecs()
{
    std::vector<std::string> specs = gapBenchmarkSpecs();
    for (const auto &n : hpcDbNames())
        specs.push_back(n);
    return specs;
}

double
harmonicMean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double inv = 0.0;
    for (double v : values) {
        if (v <= 0.0)
            return 0.0;
        inv += 1.0 / v;
    }
    return double(values.size()) / inv;
}

void
printSpeedupTable(std::ostream &os,
                  const std::vector<std::string> &row_names,
                  const std::vector<std::string> &col_names,
                  const std::vector<std::vector<double>> &cells)
{
    os << std::left << std::setw(16) << "benchmark";
    for (const auto &c : col_names)
        os << std::right << std::setw(12) << c;
    os << "\n";
    for (size_t r = 0; r < row_names.size(); r++) {
        os << std::left << std::setw(16) << row_names[r];
        for (double v : cells[r])
            os << std::right << std::setw(12) << std::fixed
               << std::setprecision(3) << v;
        os << "\n";
    }
}

} // namespace vrsim
