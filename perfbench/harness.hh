/**
 * @file
 * Shared plumbing of the yasim benchmark harness: the host clock, the
 * in-memory span recorder behind the traced run, order statistics, and
 * per-phase getrusage deltas.
 *
 * Everything here times yasim from the outside. Spans are recorded by
 * the harness around each call it makes into a library layer, kept in
 * memory, and written out once as Chrome trace-event JSON.
 */

#ifndef YASIM_PERFBENCH_HARNESS_HH
#define YASIM_PERFBENCH_HARNESS_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p start. */
double secondsSince(Clock::time_point start);

/** One recorded layer call. Times are microseconds since the epoch. */
struct Span
{
    std::string name;
    /** Technique family of an engine call ("" elsewhere). */
    std::string family;
    double startUs = 0.0;
    double endUs = 0.0;
    uint64_t id = 0;
    /** Enclosing span (0 = root). */
    uint64_t parent = 0;
    /** Position of the call in its workload's call list (0 = none). */
    uint64_t call = 0;
    uint32_t tid = 0;

    double ms() const { return (endUs - startUs) / 1000.0; }
};

/**
 * Thread-safe span sink. Disabled, it records nothing and the scoped
 * spans below cost one branch.
 */
class Tracer
{
  public:
    Tracer();

    void setEnabled(bool on) { enabled_ = on; }
    bool enabled() const { return enabled_; }

    /** Microseconds since the tracer was built. */
    double nowUs() const;
    uint64_t newId() { return nextId.fetch_add(1); }
    void record(Span span);

    /** Every span recorded so far, in completion order. */
    std::vector<Span> spans() const;

    /** Write the spans as Chrome trace-event JSON ("X" events). */
    bool writeChromeTrace(const std::string &path) const;

  private:
    Clock::time_point epoch;
    bool enabled_ = false;
    std::atomic<uint64_t> nextId{1};
    mutable std::mutex mutex;
    std::vector<Span> recorded; // guarded by mutex
};

/** RAII span: opens at construction, records at destruction. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer &tracer, const char *name, uint64_t parent = 0,
               uint64_t call = 0, const std::string &family = {});
    ~ScopedSpan();

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    /** This span's id (0 when tracing is off), for child spans. */
    uint64_t id() const { return span.id; }

  private:
    Tracer *tracer = nullptr;
    Span span;
};

/** Linear-interpolated quantile (q in [0, 1]); 0 for no samples. */
double quantile(std::vector<double> values, double q);
inline double median(const std::vector<double> &values)
{
    return quantile(values, 0.5);
}

/** Process CPU time and minor faults (getrusage, all threads). */
struct HostUsage
{
    double userS = 0.0;
    double sysS = 0.0;
    double minorFaults = 0.0;

    static HostUsage now();
    HostUsage operator-(const HostUsage &earlier) const;
    void scale(double factor);
};

/** Restart the peak-RSS high-water mark (no-op where unsupported). */
void resetPeakRss();

/** Peak resident set size since the last reset (or start), in MiB. */
double peakRssMb();

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    /** Samples behind the value (1 for a single measurement). */
    size_t samples = 1;
};

} // namespace perfbench

#endif // YASIM_PERFBENCH_HARNESS_HH
