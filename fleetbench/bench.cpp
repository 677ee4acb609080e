#include "bench.h"

#include <time.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

namespace fleetbench
{

u64
nowNs()
{
    return static_cast<u64>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now().time_since_epoch())
            .count());
}

double
secondsBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

double
processCpuSeconds()
{
    timespec ts{};
    ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) / 1e9;
}

double
processCpuSeconds(int pid)
{
    clockid_t clock;
    timespec ts{};
    if (::clock_getcpuclockid(pid, &clock) != 0 ||
        ::clock_gettime(clock, &ts) != 0)
        return -1;
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) / 1e9;
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return values[lo] + frac * (values[hi] - values[lo]);
}

void
Metrics::set(const std::string &name, double value,
             const std::string &unit)
{
    if (!values_.count(name))
        order_.push_back(name);
    values_[name] = {value, unit};
}

std::string
Metrics::json() const
{
    std::string out = "{";
    char number[64];
    for (std::size_t i = 0; i < order_.size(); ++i) {
        const auto &[value, unit] = values_.at(order_[i]);
        std::snprintf(number, sizeof number, "%.17g", value);
        out += (i ? ", \"" : "\"") + order_[i] + "\": {\"value\": " +
               number + ", \"unit\": \"" + unit + "\"}";
    }
    return out + "}";
}

void
Outcome::addPhase(const std::string &name, u64 phase_attempted,
                  u64 phase_failed)
{
    attempted += phase_attempted;
    failed += phase_failed;
    auto it = std::find_if(phases.begin(), phases.end(),
                           [&](const Phase &p) { return p.name == name; });
    if (it == phases.end())
        it = phases.insert(phases.end(), Phase{name});
    it->attempted += phase_attempted;
    it->failed += phase_failed;
}

u32
SpanLog::nameId(const std::string &name)
{
    auto it = nameIds_.find(name);
    if (it != nameIds_.end())
        return it->second;
    const auto id = static_cast<u32>(names_.size());
    names_.push_back(name);
    nameIds_.emplace(name, id);
    return id;
}

std::size_t
SpanLog::add(const std::string &name, u64 start_ns, u64 end_ns,
             u64 request, std::size_t parent)
{
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({nameId(name), start_ns, end_ns, request, parent});
    return spans_.size() - 1;
}

std::size_t
SpanLog::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_.size();
}

std::string
SpanLog::selfTimeTable() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<double> child_ns(spans_.size(), 0.0);
    for (const Span &span : spans_)
        if (span.parent != kNoParent)
            child_ns[span.parent] +=
                static_cast<double>(span.end - span.start);
    struct Row
    {
        u64 spans = 0;
        double total = 0, self = 0;
    };
    std::vector<Row> rows(names_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const double duration =
            static_cast<double>(spans_[i].end - spans_[i].start);
        Row &row = rows[spans_[i].name];
        ++row.spans;
        row.total += duration;
        row.self += duration - child_ns[i];
    }
    std::ostringstream out;
    char line[256];
    std::snprintf(line, sizeof line, "%-34s %9s %12s %12s %10s\n",
                  "span", "count", "total_ms", "self_ms", "self_us/op");
    out << line;
    for (std::size_t n = 0; n < names_.size(); ++n) {
        const Row &row = rows[n];
        std::snprintf(line, sizeof line,
                      "%-34s %9" PRIu64 " %12.3f %12.3f %10.3f\n",
                      names_[n].c_str(), row.spans, row.total / 1e6,
                      row.self / 1e6,
                      row.spans ? row.self / 1e3 /
                                      static_cast<double>(row.spans)
                                : 0.0);
        out << line;
    }
    return out.str();
}

bool
SpanLog::writeChromeTrace(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::ofstream out(path, std::ios::binary);
    if (!out)
        return false;
    const u64 epoch = spans_.empty() ? 0 : spans_.front().start;
    out << "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [";
    char line[512];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &span = spans_[i];
        // One viewer lane per layer depth keeps parents above children.
        unsigned depth = 0;
        for (std::size_t p = span.parent; p != kNoParent;
             p = spans_[p].parent)
            ++depth;
        std::snprintf(
            line, sizeof line,
            "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
            "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
            "{\"span\": %zu, \"parent\": %lld, \"request\": %lld}}",
            i ? "," : "", names_[span.name].c_str(), depth,
            static_cast<double>(span.start - epoch) / 1e3,
            static_cast<double>(span.end - span.start) / 1e3, i,
            span.parent == kNoParent
                ? -1LL
                : static_cast<long long>(span.parent),
            span.request == kNoRequest
                ? -1LL
                : static_cast<long long>(span.request));
        out << line;
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
}

namespace
{

/** A "Vm...:" kB field of /proc/self/status, in MiB. */
double
statusMib(const std::string &field)
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind(field, 0) == 0)
            return std::stod(line.substr(field.size())) / 1024.0;
    return 0.0;
}

} // namespace

double
peakRssMib()
{
    return statusMib("VmHWM:");
}

double
currentRssMib()
{
    return statusMib("VmRSS:");
}

void
resetPeakRss()
{
    std::ofstream clear("/proc/self/clear_refs");
    clear << "5\n";
}

namespace
{

/** Steal and total ticks of the first /proc/stat line. */
std::pair<u64, u64>
cpuTicks()
{
    std::ifstream stat("/proc/stat");
    std::string cpu;
    stat >> cpu;
    u64 total = 0, steal = 0, value = 0;
    for (int field = 0; field < 10 && stat >> value; ++field) {
        total += value;
        if (field == 7)
            steal = value;
    }
    return {steal, total};
}

} // namespace

double
QuietHost::wait()
{
    for (;;) {
        const auto [steal0, total0] = cpuTicks();
        const auto start = Clock::now();
        std::this_thread::sleep_for(std::chrono::milliseconds(250));
        const auto [steal1, total1] = cpuTicks();
        const double share =
            total1 > total0 ? static_cast<double>(steal1 - steal0) /
                                  static_cast<double>(total1 - total0)
                            : 0.0;
        if (share < kQuietSteal || waitedS_ >= budgetS_)
            return share;
        waitedS_ += secondsBetween(start, Clock::now());
    }
}

} // namespace fleetbench
