/**
 * @file
 * Measurement support for cactus_bench: the statistics every metric is
 * reduced with, the span recorder of the traced run, a minimal JSON
 * reader for BENCHMARK.json and result files, the recorded-digest
 * table, and the host probes (peak RSS, clock).
 *
 * Everything here measures the simulator from outside: spans are
 * recorded around calls the benchmark makes into the libraries, never
 * inside them.
 */

#ifndef CACTUS_BENCHMARK_SUPPORT_HH
#define CACTUS_BENCHMARK_SUPPORT_HH

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace cactus::bench {

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p t0. */
double secondsSince(Clock::time_point t0);

/** Seconds between two time points. */
double secondsBetween(Clock::time_point a, Clock::time_point b);

// ---------------------------------------------------------------------------
// Machine-speed reference

/** Seconds referenceSeconds() reads at the reference host's nominal
 *  speed: the scale every reported time is expressed in. */
constexpr double kReferenceSeconds = 0.12;

/**
 * Time the fixed machine-speed reference in this process: the
 * geometric mean of four kernels that stress what the simulator
 * stresses — a branchy L1-resident tag-array probe on one thread and
 * on @p threads threads at once (serial and parallel phases), a
 * miniature L1/L2 replay of a 16 MB line trace, and a 64 MB memory
 * stream. It lives in the benchmark, not the simulator, so no change
 * to the simulator moves it.
 */
double runReference(int threads);

/** runReference() in a fresh process, so the reference's buffers
 *  never count towards the caller's peak RSS. */
double referenceSeconds(int threads);

/**
 * Scales wall times to the reference host's nominal speed. Shared
 * virtual hosts drift in effective speed by tens of percent over
 * minutes, and even a single-threaded run's CPU time drifts with them.
 * A simulator op and the reference timed on either side of it drift
 * together: over 12 runs each on a 4-vCPU host, the run-to-run spread
 * of the suite-tiny, sweep-l1 and cactus-small median ops fell from
 * 20%, 23% and 21% raw to 6%, 6% and 8% scaled. So the scaled time
 * tracks the code, not the neighbours. The parallel kernel matters:
 * without it the spreads were 7%, 8% and 11%, because how much of
 * four cores the host grants varies on its own.
 */
class SpeedReference
{
  public:
    /** @param threads The host threads the measured code uses. */
    explicit SpeedReference(int threads)
        : threads_(threads), last_(referenceSeconds(threads))
    {
    }

    /** Time the reference again; the factor that scales wall time
     *  spent since the previous mark to nominal speed. */
    double
    mark()
    {
        const double now = referenceSeconds(threads_);
        const double factor = 2 * kReferenceSeconds / (last_ + now);
        last_ = now;
        return factor;
    }

  private:
    const int threads_;
    double last_;
};

// ---------------------------------------------------------------------------
// Statistics

/** The median, as Python's statistics.median computes it; 0 when empty. */
double median(std::vector<double> values);

/**
 * The three quartile cut points, as Python's
 * statistics.quantiles(values, n=4) (method "exclusive") computes
 * them — the reduction the repeatability check applies. A single value
 * yields three copies of it; empty input yields zeros.
 */
std::array<double, 3> quartiles(std::vector<double> values);

/** Nearest-rank percentile, @p p in [0, 1]; 0 when empty. */
double percentile(std::vector<double> values, double p);

/**
 * The tail latency of @p values: the highest percentile, at most p99,
 * that leaves at least ten samples beyond it. With fewer than 20
 * samples no such percentile exists and the slowest value is returned.
 */
double tailValue(std::vector<double> values);

// ---------------------------------------------------------------------------
// Metrics

struct Metric
{
    double value = 0;
    std::string unit;
};

using Metrics = std::map<std::string, Metric>;

/** Peak resident set size of this process (VmHWM), in MB. */
double peakRssMb();

/**
 * Run this executable again with @p args in a fresh process, wait for
 * it, and return its standard output. ConfigError when it cannot be
 * started or exits non-zero.
 */
std::string runSelf(const std::vector<std::string> &args);

/** hex16 FNV-1a over @p bodies sorted, each followed by a newline. */
std::string digestOfSorted(std::vector<std::string> bodies);

// ---------------------------------------------------------------------------
// Spans

/**
 * In-memory span recorder for the traced run. A span has a name, the
 * layer it is attributed to, start and end times, the span that caused
 * it, and a request id shared by the spans of one task or request.
 * Recording starts off and is a no-op until switched on, so untraced
 * work pays one branch per call site. Thread-safe.
 */
class Trace
{
  public:
    bool recording() const { return recording_.load(); }
    void setRecording(bool on) { recording_.store(on); }

    /** Record a finished span; returns its id (0 when not recording). */
    std::uint64_t add(std::string name, std::string layer,
                      std::uint64_t parent, std::uint64_t request,
                      Clock::time_point start, Clock::time_point end);

    /** The innermost open Scope on this thread (0 at top level). */
    static std::uint64_t current();

    /**
     * Self time per layer: each span's duration minus the part of it
     * its children cover.
     */
    std::map<std::string, double> selfSeconds() const;

    /** Summed duration of the spans named @p name. */
    double totalSeconds(const std::string &name) const;

    /** Write every span as one JSON object per line; false on error. */
    bool writeJsonl(const std::string &path) const;

    /** RAII span around a call into one layer; nests per thread. */
    class Scope
    {
      public:
        Scope(Trace &trace, std::string name, std::string layer,
              std::uint64_t request = 0);
        ~Scope();

        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        std::uint64_t id() const { return id_; }

      private:
        Trace &trace_;
        std::string name_;
        std::string layer_;
        std::uint64_t request_;
        std::uint64_t parent_;
        std::uint64_t id_ = 0;
        Clock::time_point start_;
    };

  private:
    struct Span
    {
        std::string name;
        std::string layer;
        std::uint64_t id = 0;
        std::uint64_t parent = 0;
        std::uint64_t request = 0;
        Clock::time_point start;
        Clock::time_point end;
    };

    std::uint64_t reserveId();

    std::atomic<bool> recording_{false};
    const Clock::time_point epoch_ = Clock::now();
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
    std::uint64_t nextId_ = 1;
};

// ---------------------------------------------------------------------------
// JSON

/** A parsed JSON value; objects keep their key order. */
struct JsonValue
{
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object
    };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0;
    std::string text;
    std::vector<JsonValue> items;
    std::vector<std::pair<std::string, JsonValue>> members;

    /** The member named @p key, or null when absent or not an object. */
    const JsonValue *find(const std::string &key) const;
};

/** Parse one JSON document; ConfigError on malformed input. */
JsonValue parseJson(std::string_view text);

/** Read a whole file; ConfigError when unreadable. */
std::string readFile(const std::string &path);

// ---------------------------------------------------------------------------
// The benchmark definition (BENCHMARK.json)

struct MetricSpec
{
    std::string name;
    std::string unit;
    bool higherIsBetter = false;
    double bound = 0; ///< Allowed relative worsening; end-to-end only.
    bool endToEnd = false;
};

struct BenchSpec
{
    int runSeconds = 0;
    std::vector<std::string> workloads;
    std::vector<MetricSpec> metrics;

    const MetricSpec *find(const std::string &name) const;
};

/** Load BENCHMARK.json; ConfigError on a missing or malformed field. */
BenchSpec loadSpec(const std::string &path);

// ---------------------------------------------------------------------------
// Recorded result digests (benchmark/digests.txt)

/**
 * The expected result digest per (workload, size), one
 * "workload size hex16" line each, '#' comments. Result digests are
 * seed-independent, so one line covers every seed.
 */
class DigestTable
{
  public:
    static DigestTable load(const std::string &path);

    /** The recorded digest, or "" when none is recorded. */
    std::string find(const std::string &workload,
                     const std::string &size) const;

    void set(const std::string &workload, const std::string &size,
             const std::string &digest);

    /** Rewrite the table, sorted; ConfigError when unwritable. */
    void save(const std::string &path) const;

  private:
    std::map<std::pair<std::string, std::string>, std::string> entries_;
};

} // namespace cactus::bench

#endif // CACTUS_BENCHMARK_SUPPORT_HH
