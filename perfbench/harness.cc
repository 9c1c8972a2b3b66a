#include "harness.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <thread>

namespace perfbench {

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

Tracer::Tracer() : epoch(Clock::now()) {}

double
Tracer::nowUs() const
{
    return std::chrono::duration<double, std::micro>(Clock::now() - epoch)
        .count();
}

void
Tracer::record(Span span)
{
    std::lock_guard<std::mutex> lock(mutex);
    recorded.push_back(std::move(span));
}

std::vector<Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return recorded;
}

namespace {

/** JSON string body; span names are plain ASCII identifiers. */
std::string
jsonEscape(const std::string &text)
{
    std::string out;
    for (char c : text) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        out.push_back(c);
    }
    return out;
}

} // namespace

bool
Tracer::writeChromeTrace(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    for (const Span &s : spans()) {
        os << (first ? "\n" : ",\n");
        first = false;
        char times[96];
        std::snprintf(times, sizeof(times), "\"ts\":%.3f,\"dur\":%.3f",
                      s.startUs, s.endUs - s.startUs);
        os << "{\"name\":\"" << jsonEscape(s.name)
           << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid << ","
           << times << ",\"args\":{\"id\":" << s.id
           << ",\"parent\":" << s.parent << ",\"call\":" << s.call;
        if (!s.family.empty())
            os << ",\"family\":\"" << jsonEscape(s.family) << "\"";
        os << "}}";
    }
    os << "\n]}\n";
    return bool(os);
}

ScopedSpan::ScopedSpan(Tracer &t, const char *name, uint64_t parent,
                       uint64_t call, const std::string &family)
{
    if (!t.enabled())
        return;
    tracer = &t;
    span.name = name;
    span.family = family;
    span.parent = parent;
    span.call = call;
    span.id = t.newId();
    span.tid = uint32_t(
        std::hash<std::thread::id>()(std::this_thread::get_id()) % 100000);
    span.startUs = t.nowUs();
}

ScopedSpan::~ScopedSpan()
{
    if (!tracer)
        return;
    span.endUs = tracer->nowUs();
    tracer->record(std::move(span));
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    double pos = q * double(values.size() - 1);
    size_t lo = size_t(std::floor(pos));
    size_t hi = std::min(lo + 1, values.size() - 1);
    double frac = pos - double(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

HostUsage
HostUsage::now()
{
    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    HostUsage u;
    u.userS = double(ru.ru_utime.tv_sec) + ru.ru_utime.tv_usec / 1e6;
    u.sysS = double(ru.ru_stime.tv_sec) + ru.ru_stime.tv_usec / 1e6;
    u.minorFaults = double(ru.ru_minflt);
    return u;
}

HostUsage
HostUsage::operator-(const HostUsage &earlier) const
{
    HostUsage d;
    d.userS = userS - earlier.userS;
    d.sysS = sysS - earlier.sysS;
    d.minorFaults = minorFaults - earlier.minorFaults;
    return d;
}

void
HostUsage::scale(double factor)
{
    userS *= factor;
    sysS *= factor;
    minorFaults *= factor;
}

void
resetPeakRss()
{
    // "5" resets the kernel's high-water mark (VmHWM) for this process.
    std::ofstream("/proc/self/clear_refs") << "5";
}

double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux
}

} // namespace perfbench
