/**
 * @file
 * The benchmark's own measurement arithmetic: medians and the tail
 * percentile rule, in-memory spans with self-time, the failed-cell
 * share, and the simulated-statistics fingerprint. Nothing here
 * touches the simulator's timing; it only reads its results.
 */

#ifndef VRBENCH_METRICS_HH
#define VRBENCH_METRICS_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "driver/plan.hh"

namespace vrbench
{

using Clock = std::chrono::steady_clock;

/** Seconds between two steady-clock points. */
inline double
seconds(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

/** Median of @p v (mean of the middle pair for even sizes); 0 if
 *  empty. */
double median(std::vector<double> v);

/** Nearest-rank percentile @p p (0 < p <= 100) of @p v; 0 if empty. */
double percentile(std::vector<double> v, double p);

/**
 * A timing's tail: the highest percentile of {50, 75, 90, 95, 99,
 * 99.9} that has at least ten samples beyond its nearest rank. With
 * fewer than 20 samples no percentile qualifies and the tail is the
 * maximum, reported as percentile 100 with nothing beyond it.
 */
struct Tail
{
    double percentile = 100.0;
    double value = 0.0;
    size_t samples = 0;
    size_t beyond = 0;   //!< samples strictly after the rank
};

Tail tailOf(const std::vector<double> &samples);

/** One timed interval. @c parent is the 1-based index of the
 *  enclosing span in the same log (0 = top level). */
struct Span
{
    const char *name = "";
    uint32_t parent = 0;
    uint32_t cell = 0;
    int64_t start_ns = 0;
    int64_t end_ns = 0;

    double seconds() const { return double(end_ns - start_ns) * 1e-9; }
};

/**
 * Spans of one cell, kept in memory and written out when the
 * benchmark ends. Single-threaded: each cell owns its log. Nesting
 * follows begin/end order.
 */
class SpanLog
{
  public:
    explicit SpanLog(uint32_t cell = 0) : cell_(cell) {}

    /** Open a span under the innermost open one; returns its id. */
    uint32_t begin(const char *name);

    /** Close span @p id (must be the innermost open one). */
    void end(uint32_t id);

    const std::vector<Span> &spans() const { return spans_; }

    /** Sum of the durations of spans named @p name. */
    double total(const char *name) const;

    /** Number of spans named @p name. */
    size_t count(const char *name) const;

    /**
     * Sum over spans named @p name of their self time: duration
     * minus the part of it that their children cover.
     */
    double selfTotal(const char *name) const;

    /** RAII span. */
    class Scope
    {
      public:
        Scope(SpanLog &log, const char *name)
            : log_(log), id_(log.begin(name))
        {}
        ~Scope() { log_.end(id_); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        SpanLog &log_;
        uint32_t id_;
    };

  private:
    uint32_t cell_;
    std::vector<Span> spans_;
    std::vector<uint32_t> open_;
};

/** Nanoseconds on the steady clock (span timestamps). */
int64_t nowNs();

/**
 * Self time of every span in @p spans, in order: its duration minus
 * the union of its direct children's intervals clipped to it.
 */
std::vector<int64_t> selfNs(const std::vector<Span> &spans);

/** failed / attempted, 0 when nothing was attempted. */
double failedShare(size_t failed, size_t attempted);

/**
 * FNV-1a fingerprint of every simulated statistic of a sweep: each
 * cell's id, status and registry (driver/report.hh buildRegistry)
 * minus host.* paths, in point order. Equal fingerprints mean two
 * sweeps produced identical simulated results.
 */
uint64_t fingerprintOf(const std::vector<vrsim::RunPoint> &points,
                       const std::vector<vrsim::SimResult> &results);

/**
 * Instructions the cell simulated in detail: the measured ones plus
 * the detailed-warm ones (the global warmup, or the sampled windows'
 * warm instructions).
 */
uint64_t detailedInsts(const vrsim::RunPoint &p,
                       const vrsim::SimResult &r);

/** Instructions the cell executed functionally (fast-forward). */
uint64_t functionalInsts(const vrsim::SimResult &r);

/** Peak resident set of this process in MiB. */
double peakRssMb();

/** "0x" + 16 hex digits. */
std::string hex64(uint64_t v);

} // namespace vrbench

#endif // VRBENCH_METRICS_HH
