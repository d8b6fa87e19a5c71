/**
 * @file
 * The traced run: each cell is composed from the public API
 * (MemoryHierarchy, the runahead engines, OooCore run/runFrom/
 * fastForward) exactly as driver/simulation.cc runWorkload composes
 * it, with benchmark spans around the calls into each layer and a
 * timing decorator between the core and its runahead engine. Its
 * simulated results must equal the untraced SweepRunner run's, which
 * the benchmark checks through the registry fingerprint.
 */

#ifndef VRBENCH_TRACED_HH
#define VRBENCH_TRACED_HH

#include <memory>
#include <vector>

#include "core/engine.hh"
#include "driver/plan.hh"
#include "metrics.hh"
#include "workloads/workload_cache.hh"

namespace vrbench
{

/** Span names, one per layer boundary the benchmark times. */
namespace span
{
inline constexpr const char *kBuild = "workloads.build";
inline constexpr const char *kInstantiate = "workloads.instantiate";
inline constexpr const char *kFf = "isa.ff";
inline constexpr const char *kWarmFf = "mem.warm_ff";
inline constexpr const char *kDetailed = "core.detailed";
inline constexpr const char *kStall = "runahead.stall";
inline constexpr const char *kReport = "driver.report";
} // namespace span

/**
 * Forwarding RunaheadEngine that times the engine the core calls:
 * every onFullRobStall becomes a runahead.stall span, and the time in
 * onInstruction is summed (one span per instruction would not fit in
 * memory).
 */
class TimedEngine final : public vrsim::RunaheadEngine
{
  public:
    TimedEngine(vrsim::RunaheadEngine &inner, SpanLog &log)
        : inner_(inner), log_(log)
    {}

    void onInstruction(const vrsim::StepInfo &si,
                       const vrsim::CpuState &after,
                       vrsim::Cycle cycle) override;

    vrsim::Cycle onFullRobStall(vrsim::Cycle stall_start,
                                vrsim::Cycle head_fill,
                                const vrsim::CpuState &frontier,
                                vrsim::TriggerKind kind) override;

    const char *name() const override { return inner_.name(); }

    void
    setTraceSink(vrsim::TraceSink *sink) override
    {
        inner_.setTraceSink(sink);
    }

    double oninstSeconds() const { return double(oninst_ns_) * 1e-9; }

  private:
    vrsim::RunaheadEngine &inner_;
    SpanLog &log_;
    int64_t oninst_ns_ = 0;
};

/** One traced cell: its result, its spans and the counts taken at
 *  the same boundaries. */
struct TracedCell
{
    vrsim::SimResult result;
    SpanLog spans;
    double oninst_s = 0.0;        //!< time inside onInstruction
    uint64_t ff_insts = 0;        //!< pure fast-forward prefix
    uint64_t warm_ff_insts = 0;   //!< warming fast-forward
    uint64_t calendar_probes = 0; //!< hierarchy calendar probes over
                                  //!< the measured (post-warm) part
};

/** Run every point traced on @p workers threads; results in point
 *  order. A failing cell becomes its result's status, as in
 *  SweepRunner::runPoint. */
std::vector<TracedCell>
runTracedSweep(const std::vector<vrsim::RunPoint> &points,
               vrsim::WorkloadCache &cache, unsigned workers);

/**
 * Construct what the first simulated instruction of @p p needs (an
 * image copy, the hierarchy, the engine and the core) and drop it:
 * the tail of the benchmark's set-up.
 */
void constructCell(const vrsim::RunPoint &p, vrsim::WorkloadCache &cache);

/**
 * Digest of @p p's committed stream from a functional run of its
 * spec: the reference for cells whose plan has no OoO column.
 */
vrsim::DigestRecord functionalDigest(const vrsim::RunPoint &p,
                                     vrsim::WorkloadCache &cache);

} // namespace vrbench

#endif // VRBENCH_TRACED_HH
