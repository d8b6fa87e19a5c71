/**
 * @file
 * The benchmark's workloads: each is a RunPlan over the public driver
 * API plus how it is executed (worker count, set-up repetitions,
 * which digest oracle checks it). DESIGN.md gives the reasons.
 */

#ifndef VRBENCH_WORKLOADS_HH
#define VRBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "driver/plan.hh"

namespace vrbench
{

/** Workload seed used when --seed is not given; the reference
 *  digests stored with the benchmark are taken at this seed. */
constexpr uint64_t kDefaultSeed = 42;

/** Seed reserved for held-out checks of later speed claims; never
 *  used while tuning a change. */
constexpr uint64_t kHeldOutSeed = 20211;

struct BenchWorkload
{
    std::string name;
    std::string why;
    unsigned workers = 1;   //!< SweepRunner jobs
    unsigned setups = 3;    //!< set-ups per run (setup_s is the median)

    /** The plan has an OoO column per spec, so the sweep's own
     *  differential check (SweepOptions::check_digests) applies.
     *  Otherwise every cell is checked against a functional
     *  reference run of its spec. */
    bool ooo_baseline = true;

    /** The grid over @p base, with GraphScale::seed and
     *  HpcDbScale::seed = seed. */
    vrsim::RunPlan (*plan)(uint64_t seed,
                           const vrsim::SystemConfig &base) = nullptr;
};

/** All workloads: those BENCHMARK.json lists, then the core-oracle
 *  control (DESIGN.md says why it is not listed). */
const std::vector<BenchWorkload> &benchWorkloads();

/** Workload by name, or null. */
const BenchWorkload *findWorkload(const std::string &name);

} // namespace vrbench

#endif // VRBENCH_WORKLOADS_HH
