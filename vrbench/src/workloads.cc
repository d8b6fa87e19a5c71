#include "workloads.hh"

namespace vrbench
{

using vrsim::RunPlan;
using vrsim::Technique;

namespace
{

/** The Fig. 7 spec mix: two GAP kernels on a power-law and a uniform
 *  graph, and four hpc-db kernels (hash-table, pointer-chasing,
 *  hash-join and sparse-matrix access patterns). */
const std::vector<std::string> kSpecs = {
    "bfs/KR", "pr/UR", "camel", "kangaroo", "hj8", "nas-cg"};

vrsim::GraphScale
graphScale(uint64_t seed, uint64_t nodes = vrsim::GraphScale{}.nodes)
{
    vrsim::GraphScale g;
    g.nodes = nodes;
    g.seed = seed;
    return g;
}

vrsim::HpcDbScale
hpcdbScale(uint64_t seed)
{
    vrsim::HpcDbScale h;
    h.seed = seed;
    return h;
}

RunPlan
fig7Sweep(uint64_t seed, const vrsim::SystemConfig &base)
{
    RunPlan plan(base);
    plan.scale(graphScale(seed), hpcdbScale(seed))
        .roi(100'000)
        .warmup(20'000)
        .add(kSpecs, {Technique::OoO, Technique::Pre, Technique::Imp,
                      Technique::Vr, Technique::DvrOffload,
                      Technique::DvrDiscovery, Technique::Dvr,
                      Technique::Oracle});
    return plan;
}

RunPlan
paperSampled(uint64_t seed, const vrsim::SystemConfig &base)
{
    // 2^20 nodes x 16 edges: a ~140 MB image against the 512 KB
    // benchScale() L3. A 20M-instruction functional prefix, then an
    // 8M-instruction ROI sampled SMARTS-style: 10K measured of every
    // 1M, each after the 50K detailed-warm window docs/sampling.md
    // recommends for VR.
    vrsim::SamplingPlan s;
    s.ff_insts = 20'000'000;
    s.period = 1'000'000;
    s.detail = 10'000;
    s.warm = 50'000;
    RunPlan plan(base);
    plan.scale(graphScale(seed, 1u << 20), hpcdbScale(seed))
        .roi(8'000'000)
        .sample(s)
        .add({"bfs/UR"}, {Technique::OoO, Technique::Vr, Technique::Dvr});
    return plan;
}

RunPlan
coreOracle(uint64_t seed, const vrsim::SystemConfig &base)
{
    RunPlan plan(base);
    plan.scale(graphScale(seed), hpcdbScale(seed))
        .roi(2'000'000)
        .warmup(20'000)
        .add(kSpecs, {Technique::Oracle});
    return plan;
}

} // namespace

const std::vector<BenchWorkload> &
benchWorkloads()
{
    static const std::vector<BenchWorkload> all = {
        {"fig7-sweep",
         "the Fig. 7 grid people run most: core, timed memory path, "
         "calendars, all runahead engines and the sweep driver work; "
         "no fast-forward",
         2, 5, true, fig7Sweep},
        {"paper-sampled",
         "paper-scale sampled bfs/UR: graph set-up and functional "
         "fast-forward dominate; VR's detailed windows drive the "
         "timed memory path into overload",
         1, 3, true, paperSampled},
        {"core-oracle",
         "Oracle column only: every load hits L1D, so the OoO core "
         "and interpreter carry the run and memory and runahead do "
         "almost nothing",
         1, 5, false, coreOracle},
    };
    return all;
}

const BenchWorkload *
findWorkload(const std::string &name)
{
    for (const BenchWorkload &w : benchWorkloads())
        if (w.name == name)
            return &w;
    return nullptr;
}

} // namespace vrbench
