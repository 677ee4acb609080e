/**
 * @file
 * Shared pieces of the fleet benchmark: clocks, exact order statistics,
 * the metric sink that becomes the result line, the in-memory span log
 * of the traced run, peak RSS, and the wait for a host that is not
 * stealing CPU.
 */

#ifndef FLEETBENCH_BENCH_H_
#define FLEETBENCH_BENCH_H_

#include <chrono>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/types.h"

/** Binds @p lhs to the value of a Result, or returns its Status. */
#define FB_ASSIGN_OR_RETURN(lhs, expr)                                     \
    FB_ASSIGN_OR_RETURN_IMPL_(FB_CONCAT_(fb_result_, __LINE__), lhs, expr)
#define FB_ASSIGN_OR_RETURN_IMPL_(tmp, lhs, expr)                          \
    auto tmp = (expr);                                                     \
    if (!tmp.ok())                                                         \
        return tmp.status();                                               \
    lhs = std::move(tmp).value()
#define FB_CONCAT_(a, b) FB_CONCAT2_(a, b)
#define FB_CONCAT2_(a, b) a##b

namespace fleetbench
{

using namespace cdpu;
using Clock = std::chrono::steady_clock;

/** Nanoseconds on the steady clock (span timestamps). */
u64 nowNs();

double secondsBetween(Clock::time_point from, Clock::time_point to);

/** CPU seconds this process has run, all threads, dead ones included.
 *  Time the hypervisor steals is not in it (paravirtual steal
 *  accounting), nor is time spent runnable but waiting for a CPU. */
double processCpuSeconds();

/** The same for process @p pid (a child of this one); -1 if its
 *  clock cannot be read. */
double processCpuSeconds(int pid);

/** Exact linear-interpolated quantile; 0 for an empty sample. */
double quantile(std::vector<double> values, double q);

inline double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

/**
 * The better quartile of per-window figures: the upper quartile of
 * rates. Load from other tenants of a shared host only ever slows a
 * window, so this follows the program and discounts the windows a
 * neighbour slowed; a change to the program moves every window alike.
 */
inline double
bestRate(std::vector<double> rates)
{
    return quantile(std::move(rates), 0.75);
}

/** Named metrics with units, in insertion order of first set. */
class Metrics
{
  public:
    void set(const std::string &name, double value,
             const std::string &unit);
    /** One JSON object {"name": {"value": v, "unit": u}, ...}. */
    std::string json() const;

  private:
    std::vector<std::string> order_;
    std::map<std::string, std::pair<double, std::string>> values_;
};

/** Operation accounting plus the correctness verdict of one run. */
struct Outcome
{
    u64 attempted = 0;
    u64 failed = 0;
    u64 mismatches = 0; ///< Output bytes that differ from the reference.
    struct Phase
    {
        std::string name;
        u64 attempted = 0;
        u64 failed = 0;
    };
    /** Operations per phase for the run log, in first-seen order; the
     *  counts of a phase run several times are summed. */
    std::vector<Phase> phases;

    void addPhase(const std::string &name, u64 phase_attempted,
                  u64 phase_failed);
    bool correct() const { return mismatches == 0 && failed == 0; }
};

/**
 * Spans of the traced run, kept in memory and written once at the
 * end. A span records the benchmark's own call into one layer; the
 * parent is the span of the layer above for the same request (the
 * layers run one after another on the same call, so the parent link
 * is the layering, not time containment). Self time is a span's
 * duration minus its children's.
 */
class SpanLog
{
  public:
    static constexpr u64 kNoRequest = ~u64{0};
    static constexpr std::size_t kNoParent = ~std::size_t{0};

    /** Records [start, end) and returns the span's index. */
    std::size_t add(const std::string &name, u64 start_ns, u64 end_ns,
                    u64 request = kNoRequest,
                    std::size_t parent = kNoParent);

    /** Per-name table: spans, total ms, self ms. */
    std::string selfTimeTable() const;
    /** Chrome trace_event JSON. */
    bool writeChromeTrace(const std::string &path) const;
    std::size_t size() const;

  private:
    struct Span
    {
        u32 name = 0;
        u64 start = 0;
        u64 end = 0;
        u64 request = kNoRequest;
        std::size_t parent = kNoParent;
    };

    u32 nameId(const std::string &name);

    mutable std::mutex mutex_;
    std::vector<Span> spans_;
    std::vector<std::string> names_;
    std::map<std::string, u32> nameIds_;
};

/** Peak resident set of this process in MiB (VmHWM). */
double peakRssMib();
/** Current resident set of this process in MiB (VmRSS). */
double currentRssMib();
/** Resets this process's VmHWM to its current RSS where the kernel
 *  allows it, so the peak covers only what follows. */
void resetPeakRss();

/**
 * Holds timed phases back while the hypervisor steals CPU from this
 * machine. A virtual machine on a shared host loses whole stretches of
 * CPU time to its neighbours (the steal column of /proc/stat), and a
 * phase timed then measures the neighbours. wait() returns once the
 * steal share of a 250 ms sample is under kQuietSteal, or when the
 * run's waiting budget is spent.
 */
class QuietHost
{
  public:
    static constexpr double kQuietSteal = 0.02;

    explicit QuietHost(double budget_s) : budgetS_(budget_s) {}

    /** Returns the steal share of the last sample. */
    double wait();
    /** Seconds spent waiting so far in this run. */
    double waitedSeconds() const { return waitedS_; }

  private:
    double budgetS_;
    double waitedS_ = 0;
};

} // namespace fleetbench

#endif // FLEETBENCH_BENCH_H_
