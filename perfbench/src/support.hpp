/**
 * @file
 * Measurement plumbing for the repository benchmark: order statistics,
 * a wall+CPU stopwatch that can be paused around correctness checks,
 * FNV-1a fingerprints, and the in-memory span recorder used by traced
 * runs.
 */

#ifndef SMOOTHE_PERFBENCH_SUPPORT_HPP
#define SMOOTHE_PERFBENCH_SUPPORT_HPP

#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** Median (mean of the middle pair for even counts); 0 when empty. */
double median(std::vector<double> values);

/** Nearest-rank percentile, q in [0, 1]; 0 when empty. */
double percentile(std::vector<double> values, double q);

/** Seconds of process CPU time (user + sys, all threads). */
double processCpuSeconds();

/** Peak resident set size of this process in MiB. */
double peakRssMiB();

/** Seconds on the steady clock since an arbitrary process origin. */
double nowSeconds();

/**
 * Times start()/stop() windows, so a timed pass can exclude the
 * correctness checks interleaved with it. Each window's wall and process
 * CPU time is kept as a lap, in order; the wall times also add up to a
 * total.
 */
class Stopwatch
{
  public:
    void start();
    void stop();
    double wallSeconds() const { return wall_; }
    const std::vector<double>& wallLaps() const { return wallLaps_; }
    const std::vector<double>& cpuLaps() const { return cpuLaps_; }

  private:
    double wallStart_ = 0.0;
    double cpuStart_ = 0.0;
    double wall_ = 0.0;
    std::vector<double> wallLaps_;
    std::vector<double> cpuLaps_;
};

/** 64-bit FNV-1a over raw values. */
class Fnv
{
  public:
    template <typename T>
    void
    add(const T& value)
    {
        unsigned char bytes[sizeof(T)];
        std::memcpy(bytes, &value, sizeof(T));
        addBytes(bytes, sizeof(T));
    }
    void add(const std::string& text);
    void addBytes(const unsigned char* data, std::size_t size);
    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 14695981039346656037ULL;
};

/** Hex rendering of a fingerprint. */
std::string hex(std::uint64_t value);

/** One recorded span. Spans opened while another is open are its
 *  children and share its id (one id per top-level request). */
struct SpanRecord
{
    const char* name = "";
    std::uint64_t id = 0;
    std::int64_t parent = -1; ///< index into the span list, -1 for roots
    double start = 0.0;       ///< seconds since the recorder origin
    double end = 0.0;
};

/**
 * Process-wide span store for traced runs. Single-threaded by design:
 * the benchmark opens spans only from its own main thread, around its
 * calls into the library. Spans are kept in memory and written out once
 * when the run ends.
 */
class SpanRecorder
{
  public:
    static SpanRecorder& instance();

    void setEnabled(bool on) { enabled_ = on; }
    bool enabled() const { return enabled_; }

    /** Opens a span; returns its index (or -1 when disabled). */
    std::int64_t open(const char* name, double start);
    void close(std::int64_t index, double end);

    /** Per span: duration minus the time its direct children cover. */
    std::vector<double> selfSeconds() const;

    /** Span name -> (total self seconds, span count). */
    std::map<std::string, std::pair<double, std::size_t>> selfTotals() const;

    /** Writes every span plus the per-name self-time totals as JSON. */
    bool writeJson(const std::string& path,
                   const std::string& metadata_json) const;

  private:
    bool enabled_ = false;
    std::uint64_t nextId_ = 1;
    std::vector<SpanRecord> spans_;
    std::vector<std::int64_t> stack_;
};

/**
 * RAII span around one layer call. It always measures its own duration
 * (so untraced runs time layers the same way) and records itself only
 * when the recorder is enabled.
 */
class Span
{
  public:
    explicit Span(const char* name);
    ~Span() { end(); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    /** Closes the span (idempotent); returns its duration in seconds. */
    double end();

  private:
    double start_ = 0.0;
    double seconds_ = -1.0;
    std::int64_t index_ = -1;
};

} // namespace perfbench

#endif // SMOOTHE_PERFBENCH_SUPPORT_HPP
