#include "support.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <sys/resource.h>

namespace perfbench {

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    if (values.size() % 2 == 1)
        return values[mid];
    return 0.5 * (values[mid - 1] + values[mid]);
}

double
percentile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = std::ceil(q * static_cast<double>(values.size()));
    const std::size_t index = static_cast<std::size_t>(
        std::clamp(rank, 1.0, static_cast<double>(values.size())));
    return values[index - 1];
}

double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           1e-9 * static_cast<double>(ts.tv_nsec);
}

double
peakRssMiB()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

double
nowSeconds()
{
    static const auto origin = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         origin)
        .count();
}

void
Stopwatch::start()
{
    wallStart_ = nowSeconds();
    cpuStart_ = processCpuSeconds();
}

void
Stopwatch::stop()
{
    wallLaps_.push_back(nowSeconds() - wallStart_);
    cpuLaps_.push_back(processCpuSeconds() - cpuStart_);
    wall_ += wallLaps_.back();
}

void
Fnv::add(const std::string& text)
{
    add(text.size());
    addBytes(reinterpret_cast<const unsigned char*>(text.data()),
             text.size());
}

void
Fnv::addBytes(const unsigned char* data, std::size_t size)
{
    for (std::size_t i = 0; i < size; ++i) {
        hash_ ^= data[i];
        hash_ *= 1099511628211ULL;
    }
}

std::string
hex(std::uint64_t value)
{
    char buffer[17];
    std::snprintf(buffer, sizeof(buffer), "%016llx",
                  static_cast<unsigned long long>(value));
    return buffer;
}

SpanRecorder&
SpanRecorder::instance()
{
    static SpanRecorder recorder;
    return recorder;
}

std::int64_t
SpanRecorder::open(const char* name, double start)
{
    if (!enabled_)
        return -1;
    SpanRecord record;
    record.name = name;
    record.start = start;
    if (stack_.empty()) {
        record.id = nextId_++;
    } else {
        record.parent = stack_.back();
        record.id = spans_[static_cast<std::size_t>(stack_.back())].id;
    }
    spans_.push_back(record);
    const auto index = static_cast<std::int64_t>(spans_.size() - 1);
    stack_.push_back(index);
    return index;
}

void
SpanRecorder::close(std::int64_t index, double end)
{
    if (index < 0)
        return;
    spans_[static_cast<std::size_t>(index)].end = end;
    // Spans nest strictly (RAII on one thread), so the closing span is
    // the innermost open one.
    if (!stack_.empty() && stack_.back() == index)
        stack_.pop_back();
}

std::vector<double>
SpanRecorder::selfSeconds() const
{
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
        self[i] = spans_[i].end - spans_[i].start;
    // Children of one parent never overlap (single thread, strict
    // nesting), so the covered time is the sum of their durations.
    for (const SpanRecord& span : spans_) {
        if (span.parent >= 0)
            self[static_cast<std::size_t>(span.parent)] -=
                span.end - span.start;
    }
    return self;
}

std::map<std::string, std::pair<double, std::size_t>>
SpanRecorder::selfTotals() const
{
    const std::vector<double> self = selfSeconds();
    std::map<std::string, std::pair<double, std::size_t>> totals;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        auto& total = totals[spans_[i].name];
        total.first += self[i];
        ++total.second;
    }
    return totals;
}

bool
SpanRecorder::writeJson(const std::string& path,
                        const std::string& metadata_json) const
{
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr)
        return false;
    const auto totals = selfTotals();
    std::fprintf(out, "{\"meta\": %s,\n\"self_time_s\": {",
                 metadata_json.c_str());
    bool first = true;
    for (const auto& [name, total] : totals) {
        std::fprintf(out, "%s\n  \"%s\": {\"self_s\": %.9g, \"count\": %zu}",
                     first ? "" : ",", name.c_str(), total.first,
                     total.second);
        first = false;
    }
    std::fprintf(out, "\n},\n\"spans\": [");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const SpanRecord& s = spans_[i];
        std::fprintf(out,
                     "%s\n  {\"name\": \"%s\", \"id\": %llu, \"parent\": "
                     "%lld, \"start_s\": %.9f, \"end_s\": %.9f}",
                     i == 0 ? "" : ",", s.name,
                     static_cast<unsigned long long>(s.id),
                     static_cast<long long>(s.parent), s.start, s.end);
    }
    std::fprintf(out, "\n]}\n");
    return std::fclose(out) == 0;
}

Span::Span(const char* name) : start_(nowSeconds())
{
    index_ = SpanRecorder::instance().open(name, start_);
}

double
Span::end()
{
    if (seconds_ < 0.0) {
        const double now = nowSeconds();
        seconds_ = now - start_;
        SpanRecorder::instance().close(index_, now);
    }
    return seconds_;
}

} // namespace perfbench
