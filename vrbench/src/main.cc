/**
 * @file
 * vrbench: the repository benchmark. Runs one workload (workloads.hh)
 * for a time budget and prints its metrics, then one JSON line:
 *
 *   vrbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *           [--reference FILE] [--spans-out FILE]
 *
 * --trace 0 measures the end-to-end metrics on untraced SweepRunner
 * sweeps. --trace 1 alternates an untraced sweep with a traced one
 * (traced.hh) and reports the per-layer metrics. Every cell is
 * checked: status Ok, digest equal to its spec's OoO cell (or to a
 * functional run when the plan has none), and, at the default seed,
 * equal to the reference stored with the benchmark. The process exits
 * 1 when any check fails. See DESIGN.md.
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>

#include "driver/report.hh"
#include "driver/sweep_runner.hh"
#include "metrics.hh"
#include "sim/parse.hh"
#include "traced.hh"
#include "workloads.hh"

using namespace vrsim;
using namespace vrbench;

namespace
{

const Clock::time_point kProcessStart = Clock::now();

struct Options
{
    std::string workload;
    uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
    std::string reference;
    std::string spans_out;
};

[[noreturn]] void
usage(const char *why)
{
    std::cerr << "vrbench: " << why << "\n"
              << "usage: vrbench --workload NAME [--seed N] "
                 "[--seconds S] [--trace 0|1]\n"
                 "               [--reference FILE] "
                 "[--spans-out FILE]\nworkloads:";
    for (const BenchWorkload &w : benchWorkloads())
        std::cerr << " " << w.name;
    std::cerr << "\n";
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; i++) {
        std::string a = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        const char *v = argv[++i];
        if (a == "--workload")
            o.workload = v;
        else if (a == "--seed")
            o.seed = parseU64("--seed", v);
        else if (a == "--seconds")
            o.seconds = double(parseU64("--seconds", v));
        else if (a == "--trace")
            o.trace = parseU64("--trace", v) != 0;
        else if (a == "--reference")
            o.reference = v;
        else if (a == "--spans-out")
            o.spans_out = v;
        else
            usage(("unknown flag " + a).c_str());
    }
    if (o.workload.empty())
        usage("--workload is required");
    return o;
}

/** Stored digest of one spec's committed stream. */
struct RefDigest
{
    uint64_t instructions = 0;
    uint64_t final_digest = 0;
};

/** "workload spec instructions 0xdigest" lines for @p workload. */
std::map<std::string, RefDigest>
loadReferences(const std::string &path, const std::string &workload)
{
    std::map<std::string, RefDigest> refs;
    std::ifstream in(path);
    if (!in)
        fatal("cannot read reference digests '" + path + "'");
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string wl, spec, insts, digest;
        if (!(ls >> wl >> spec >> insts >> digest))
            fatal("malformed reference line '" + line + "'");
        if (wl == workload)
            refs[spec] = {parseU64("reference instructions",
                                   insts.c_str()),
                          std::stoull(digest, nullptr, 16)};
    }
    return refs;
}

/** Build every artifact the plan needs (one span each into @p log),
 *  then construct its first cell. Returns the artifacts' summed image
 *  footprint in MB. */
double
setUp(const std::vector<RunPoint> &points, WorkloadCache &cache,
      SpanLog *log = nullptr)
{
    double image_mb = 0.0;
    std::set<std::string> built;   // every point shares one scale
    for (const RunPoint &p : points) {
        if (!built.insert(p.spec).second)
            continue;
        uint32_t id = log ? log->begin(span::kBuild) : 0;
        auto artifact = cache.artifact(p.spec, p.gscale, p.hscale);
        if (log)
            log->end(id);
        image_mb += double(artifact->image.footprintBytes()) / 1048576.0;
    }
    constructCell(points.front(), cache);
    return image_mb;
}

/** What one run of the workload's cells produced. */
struct Rep
{
    double run_s = 0.0;
    std::vector<SimResult> results;
};

/** Per-cell output checks beyond SimStatus (digest references). */
class Checker
{
  public:
    std::map<std::string, RefDigest> stored;      //!< default seed only
    std::map<std::string, DigestRecord> functional; //!< no-OoO plans
    bool use_stored = false;

    /** Why the cell failed, or "" when it passed. */
    std::string
    check(const RunPoint &p, const SimResult &r) const
    {
        if (!r.ok())
            return std::string(simStatusName(r.status)) + ": " +
                   r.status_message;
        if (!r.digest)
            return "no digest collected";
        auto f = functional.find(p.spec);
        if (f != functional.end()) {
            if (auto div = compareDigests(f->second, *r.digest))
                return "digest differs from the functional run at " +
                       div->toString();
        }
        if (use_stored) {
            auto s = stored.find(p.spec);
            if (s == stored.end())
                return "no stored reference digest for " + p.spec;
            if (s->second.instructions != r.digest->instructions ||
                s->second.final_digest != r.digest->final_digest)
                return "digest " + hex64(r.digest->final_digest) +
                       " differs from the stored reference " +
                       hex64(s->second.final_digest);
        }
        return "";
    }
};

struct Tally
{
    size_t attempted = 0;
    size_t failed = 0;
    std::set<uint64_t> fingerprints;

    /** Count and check one sweep; without @p checker (sweeps run
     *  without digests) only the status is checked. */
    void
    add(const std::vector<RunPoint> &points,
        const std::vector<SimResult> &results,
        const Checker *checker = nullptr)
    {
        for (size_t i = 0; i < points.size(); i++) {
            attempted++;
            const SimResult &r = results[i];
            std::string why =
                checker ? checker->check(points[i], r)
                : r.ok() ? ""
                         : std::string(simStatusName(r.status)) + ": " +
                               r.status_message;
            if (!why.empty() && failed++ < 10)
                std::printf("FAILED %s: %s\n", points[i].id().c_str(),
                            why.c_str());
        }
        fingerprints.insert(fingerprintOf(points, results));
    }
};

Rep
runUntraced(const RunPlan &plan, const BenchWorkload &wl,
            WorkloadCache &cache, bool check_digests)
{
    SweepOptions so;
    so.jobs = wl.workers;
    so.progress = false;
    so.cache = &cache;
    so.check_digests = check_digests;
    Rep rep;
    auto t0 = Clock::now();
    ResultTable table = SweepRunner(so).run(plan);
    rep.run_s = seconds(t0, Clock::now());
    rep.results = table.results();
    return rep;
}

/** End-to-end figures of one untraced rep. */
struct RepFigures
{
    double run_s = 0.0;
    double detailed_rate = 0.0;   //!< Minsts/s
    double ff_rate = 0.0;         //!< Minsts/s, 0 when no ff
    double cell_p50 = 0.0;
    Tail tail;
    double cell_sum = 0.0;
};

RepFigures
figuresOf(const std::vector<RunPoint> &points, const Rep &rep)
{
    RepFigures f;
    f.run_s = rep.run_s;
    uint64_t det = 0, ff = 0;
    double det_s = 0.0, ff_s = 0.0;
    std::vector<double> cells;
    for (size_t i = 0; i < points.size(); i++) {
        const SimResult &r = rep.results[i];
        det += detailedInsts(points[i], r);
        det_s += r.host_detailed_seconds;
        ff += functionalInsts(r);
        ff_s += r.host_ff_seconds;
        cells.push_back(r.host_seconds);
        f.cell_sum += r.host_seconds;
    }
    f.detailed_rate = det_s > 0.0 ? double(det) / det_s / 1e6 : 0.0;
    f.ff_rate = ff_s > 0.0 ? double(ff) / ff_s / 1e6 : 0.0;
    f.cell_p50 = percentile(cells, 50.0);
    f.tail = tailOf(cells);
    return f;
}

/** A named metric with its unit. */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** Per-layer metrics of one traced rep and its untraced partner. */
std::vector<Metric>
layerMetrics(const std::vector<RunPoint> &points,
             const std::vector<TracedCell> &cells,
             const SpanLog &setup_log, double image_mb,
             const SpanLog &report_log, double traced_run_s,
             const RepFigures &untraced, unsigned workers)
{
    double ff_s = 0, warm_s = 0, det_s = 0, self_s = 0, stall_s = 0,
           oninst_s = 0, mlp_cycles = 0;
    uint64_t ff_i = 0, warm_i = 0, det_i = 0, cycles = 0, rob = 0,
             stalls = 0, lanes = 0, pf_used = 0, pf_filled = 0,
             demand = 0, dram = 0, probes = 0, lat_sum = 0;
    for (size_t i = 0; i < cells.size(); i++) {
        const TracedCell &c = cells[i];
        const SimResult &r = c.result;
        ff_s += c.spans.total(span::kFf);
        warm_s += c.spans.total(span::kWarmFf);
        det_s += c.spans.total(span::kDetailed);
        self_s += c.spans.selfTotal(span::kDetailed) - c.oninst_s;
        stall_s += c.spans.total(span::kStall);
        stalls += c.spans.count(span::kStall);
        oninst_s += c.oninst_s;
        ff_i += c.ff_insts;
        warm_i += c.warm_ff_insts;
        det_i += detailedInsts(points[i], r);
        cycles += r.core.cycles;
        rob += r.core.rob_stall_cycles;
        lanes += (r.vr ? r.vr->lanes_spawned : 0) +
                 (r.dvr ? r.dvr->lanes_spawned : 0);
        pf_used += r.mem.pf_used_l1 + r.mem.pf_used_l2 +
                   r.mem.pf_used_l3 + r.mem.pf_used_inflight;
        pf_filled += r.mem.pf_lines_filled;
        demand += r.mem.demand_accesses;
        dram += r.mem.dramTotal();
        probes += c.calendar_probes;
        lat_sum += r.mem.demand_latency_sum;
        mlp_cycles += r.mlp * double(r.core.cycles);
    }
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    return {
        {"workloads.build_s", setup_log.total(span::kBuild), "s"},
        {"workloads.image_mb", image_mb, "MB"},
        {"isa.ff_s", ff_s, "s"},
        {"isa.ff_insts", double(ff_i), "count"},
        {"mem.warm_ff_s", warm_s, "s"},
        {"mem.warm_ff_insts", double(warm_i), "count"},
        {"core.detailed_s", det_s, "s"},
        {"core.self_s", self_s, "s"},
        {"core.ns_per_inst", ratio(self_s * 1e9, double(det_i)), "ns"},
        {"core.insts", double(det_i), "count"},
        {"core.cycles", double(cycles), "count"},
        {"core.rob_stall_cycles", double(rob), "count"},
        {"runahead.stall_calls", double(stalls), "count"},
        {"runahead.stall_s", stall_s, "s"},
        {"runahead.us_per_stall", ratio(stall_s * 1e6, double(stalls)),
         "us"},
        {"runahead.oninst_s", oninst_s, "s"},
        {"runahead.lanes", double(lanes), "count"},
        {"runahead.pf_used_lines", double(pf_used), "count"},
        {"runahead.pf_filled_lines", double(pf_filled), "count"},
        {"runahead.pf_useful_ratio",
         ratio(double(pf_used), double(pf_filled)), "ratio"},
        {"mem.demand_accesses", double(demand), "count"},
        {"mem.dram_lines", double(dram), "count"},
        {"mem.calendar_probes", double(probes), "count"},
        {"mem.calendar_probes_per_access",
         ratio(double(probes), double(demand)), "ratio"},
        {"mem.mean_load_latency", ratio(double(lat_sum), double(demand)),
         "cycles"},
        {"mem.mlp", ratio(mlp_cycles, double(cycles)), "ratio"},
        {"driver.idle_worker_s",
         double(workers) * untraced.run_s - untraced.cell_sum, "s"},
        {"driver.report_s", report_log.total(span::kReport), "s"},
        {"obs.trace_overhead_pct",
         (traced_run_s / untraced.run_s - 1.0) * 100.0, "%"},
    };
}

/** Per-key median over reps (every rep lists the same keys). */
std::vector<Metric>
medianMetrics(const std::vector<std::vector<Metric>> &reps)
{
    std::vector<Metric> out = reps.front();
    for (size_t k = 0; k < out.size(); k++) {
        std::vector<double> v;
        for (const auto &rep : reps)
            v.push_back(rep[k].value);
        out[k].value = median(v);
    }
    return out;
}

std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.12g", v);
    return buf;
}

void
printCellBreakdown(const std::vector<RunPoint> &points,
                   const std::vector<TracedCell> &cells)
{
    std::printf("%-26s %9s %9s %9s %9s %9s %9s  %s\n", "cell", "cell_s",
                "isa.ff", "mem.warm", "core.det", "ra.stall",
                "ra.oninst", "largest");
    for (size_t i = 0; i < cells.size(); i++) {
        const TracedCell &c = cells[i];
        double ff = c.spans.total(span::kFf) +
                    c.spans.total(span::kWarmFf);
        double det = c.spans.total(span::kDetailed);
        std::printf("%-26s %9.4f %9.4f %9.4f %9.4f %9.4f %9.4f  %s\n",
                    points[i].id().c_str(), c.result.host_seconds,
                    c.spans.total(span::kFf),
                    c.spans.total(span::kWarmFf), det,
                    c.spans.total(span::kStall), c.oninst_s,
                    ff > det ? "fast-forward" : "detailed");
    }
}

void
writeSpans(const std::string &path, const SpanLog &setup_log,
           const SpanLog &report_log,
           const std::vector<TracedCell> &cells)
{
    std::ofstream out(path);
    if (!out) {
        warn("cannot write spans to '" + path + "'");
        return;
    }
    const int64_t epoch = std::chrono::duration_cast<
        std::chrono::nanoseconds>(kProcessStart.time_since_epoch())
                              .count();
    out << "log,id,parent,cell,name,start_ns,end_ns\n";
    auto dump = [&](const std::string &log, const SpanLog &l) {
        for (size_t i = 0; i < l.spans().size(); i++) {
            const Span &s = l.spans()[i];
            out << log << "," << i + 1 << "," << s.parent << ","
                << s.cell << "," << s.name << ","
                << s.start_ns - epoch << "," << s.end_ns - epoch
                << "\n";
        }
    };
    dump("setup", setup_log);
    for (size_t i = 0; i < cells.size(); i++)
        dump("cell" + std::to_string(i), cells[i].spans);
    dump("report", report_log);
}

int
benchMain(const Options &o)
{
    const BenchWorkload *wl = findWorkload(o.workload);
    if (!wl)
        usage(("unknown workload " + o.workload).c_str());
    // Timed sweeps run as users run them, without digests; one
    // untimed sweep with digests checks the committed streams.
    SystemConfig digesting = SystemConfig::benchScale();
    digesting.collect_digest = true;
    RunPlan plan = wl->plan(o.seed, SystemConfig::benchScale());
    RunPlan check_plan = wl->plan(o.seed, digesting);
    const std::vector<RunPoint> points = plan.points();

    // Set-up, several times; setup_s is the median. The first one is
    // timed from process start.
    std::unique_ptr<WorkloadCache> cache;
    std::vector<double> setups;
    for (unsigned k = 0; k < wl->setups; k++) {
        cache.reset();
        cache = std::make_unique<WorkloadCache>();
        auto t0 = k ? Clock::now() : kProcessStart;
        setUp(points, *cache);
        setups.push_back(seconds(t0, Clock::now()));
    }

    Checker checker;
    checker.use_stored = o.seed == kDefaultSeed;
    if (checker.use_stored && !o.reference.empty())
        checker.stored = loadReferences(o.reference, wl->name);
    if (!wl->ooo_baseline)
        for (const RunPoint &p : check_plan.points())
            if (!checker.functional.count(p.spec))
                checker.functional[p.spec] = functionalDigest(p, *cache);
    Tally tally;
    const std::vector<SimResult> checked =
        runUntraced(check_plan, *wl, *cache, wl->ooo_baseline).results;
    tally.add(points, checked, &checker);
    const uint64_t checked_print = fingerprintOf(points, checked);

    std::vector<RepFigures> figures;
    std::vector<std::vector<Metric>> layers;
    std::set<uint64_t> traced_prints;
    std::vector<TracedCell> last_cells;
    SpanLog last_setup, last_report;
    std::vector<double> rep_s, traced_run_s;
    const auto m0 = Clock::now();
    do {
        auto r0 = Clock::now();
        Rep rep = runUntraced(plan, *wl, *cache, false);
        tally.add(points, rep.results);
        figures.push_back(figuresOf(points, rep));
        if (o.trace) {
            WorkloadCache tcache;
            SpanLog setup_log;
            double image_mb = setUp(points, tcache, &setup_log);
            auto t0 = Clock::now();
            std::vector<TracedCell> cells =
                runTracedSweep(points, tcache, wl->workers);
            traced_run_s.push_back(seconds(t0, Clock::now()));
            SpanLog report_log;
            std::vector<SimResult> results;
            {
                SpanLog::Scope s(report_log, span::kReport);
                for (const TracedCell &c : cells)
                    results.push_back(c.result);
                traced_prints.insert(fingerprintOf(points, results));
                std::ostringstream csv;
                ResultTable(points, results).writeCsv(csv);
            }
            tally.add(points, results);
            layers.push_back(layerMetrics(points, cells, setup_log,
                                          image_mb, report_log,
                                          traced_run_s.back(),
                                          figures.back(),
                                          wl->workers));
            last_cells = std::move(cells);
            last_setup = std::move(setup_log);
            last_report = std::move(report_log);
        }
        rep_s.push_back(seconds(r0, Clock::now()));
    } while (seconds(m0, Clock::now()) + median(rep_s) <= o.seconds);

    // ---- report ----
    std::vector<double> run_s, det, ff, p50, tail;
    for (const RepFigures &f : figures) {
        run_s.push_back(f.run_s);
        det.push_back(f.detailed_rate);
        ff.push_back(f.ff_rate);
        p50.push_back(f.cell_p50);
        tail.push_back(f.tail.value);
    }
    const Tail &t = figures.front().tail;
    bool deterministic = tally.fingerprints.size() == 1;
    bool fidelity = traced_prints.empty() ||
                    (traced_prints.size() == 1 &&
                     *traced_prints.begin() == checked_print);
    bool correct = tally.failed == 0 && deterministic && fidelity;

    std::printf("vrbench workload=%s seed=%llu%s seconds=%g trace=%d "
                "reps=%zu cells/rep=%zu workers=%u\n",
                wl->name.c_str(), (unsigned long long)o.seed,
                o.seed == kDefaultSeed ? " (default)"
                : o.seed == kHeldOutSeed ? " (held-out)" : "",
                o.seconds, int(o.trace), figures.size(), points.size(),
                wl->workers);
    std::map<std::string, DigestRecord> digests;
    for (size_t i = 0; i < points.size(); i++)
        if (checked[i].digest)
            digests.emplace(points[i].spec, *checked[i].digest);
    for (const auto &[spec, d] : digests)
        std::printf("digest %s %s %llu %s\n", wl->name.c_str(),
                    spec.c_str(), (unsigned long long)d.instructions,
                    hex64(d.final_digest).c_str());
    std::printf("fingerprint %s (simulated statistics, non-host.*; %s "
                "across all sweeps)\n",
                hex64(checked_print).c_str(),
                deterministic ? "identical" : "DIFFERENT");
    if (!traced_prints.empty())
        std::printf("traced fingerprint %s (%s the untraced run)\n",
                    hex64(*traced_prints.begin()).c_str(),
                    fidelity ? "equals" : "DIFFERS from");
    std::printf("failed_share %s (%zu failed of %zu attempted cells)\n",
                num(failedShare(tally.failed, tally.attempted)).c_str(),
                tally.failed, tally.attempted);

    std::vector<Metric> metrics;
    if (!o.trace) {
        metrics = {
            {"setup_s", median(setups), "s"},
            {"run_s", median(run_s), "s"},
            {"detailed_minsts_per_s", median(det), "Minsts/s"},
            {"cell_s_p50", median(p50), "s"},
            {"cell_s_tail", median(tail), "s"},
            {"peak_rss_mb", peakRssMb(), "MB"},
        };
        for (const Metric &m : metrics)
            std::printf("%-24s %-14s %s\n", m.name.c_str(),
                        num(m.value).c_str(), m.unit.c_str());
        if (median(ff) > 0.0)
            std::printf("%-24s %-14s Minsts/s\n", "ff_minsts_per_s",
                        num(median(ff)).c_str());
        else
            std::printf("%-24s absent (no fast-forward here)\n",
                        "ff_minsts_per_s");
        std::printf("run_s per sweep:");
        for (double v : run_s)
            std::printf(" %.4f", v);
        std::printf("\n");
        std::printf("cell_s_tail is p%g of %zu cells per rep (%zu "
                    "beyond), median over %zu reps\n",
                    t.percentile, t.samples, t.beyond, figures.size());
    } else {
        metrics = medianMetrics(layers);
        for (const Metric &m : metrics)
            std::printf("%-32s %-14s %s\n", m.name.c_str(),
                        num(m.value).c_str(), m.unit.c_str());
        std::printf("run_s untraced %s s, traced %s s\n",
                    num(median(run_s)).c_str(),
                    num(median(traced_run_s)).c_str());
        printCellBreakdown(points, last_cells);
        if (!o.spans_out.empty())
            writeSpans(o.spans_out, last_setup, last_report, last_cells);
    }

    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {",
                correct ? "true" : "false", tally.attempted,
                tally.failed);
    for (size_t i = 0; i < metrics.size(); i++)
        std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(),
                    num(metrics[i].value).c_str(),
                    metrics[i].unit.c_str());
    std::printf("}}\n");
    std::fflush(stdout);
    return correct ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return benchMain(parseArgs(argc, argv));
    } catch (const std::exception &e) {
        std::cerr << "vrbench: " << e.what() << "\n";
        return 1;
    }
}
