#include "support.hh"

#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "common/atomic_file.hh"
#include "common/error.hh"
#include "common/json.hh"
#include "gpu/digest.hh"

extern char **environ;

namespace cactus::bench {

double
secondsSince(Clock::time_point t0)
{
    return secondsBetween(t0, Clock::now());
}

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

namespace {

/** A 4-way LRU tag array probed by alternating strided and
 *  xorshift-random lines: branchy, L1-resident work. */
void
tagProbe()
{
    constexpr int kSets = 1024;
    constexpr int kWays = 4;
    std::vector<std::uint64_t> tags(kSets * kWays, ~0ull);
    std::vector<std::uint8_t> age(kSets * kWays, 0);
    std::uint64_t x = 88172645463325252ull, hits = 0;
    for (std::uint64_t i = 0; i < 10000000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        const std::uint64_t line =
            ((i & 1) ? (i * 32) & 0x1fffff : x & 0x3fffff) >> 7;
        const std::size_t set = line % kSets;
        std::uint64_t *way = &tags[set * kWays];
        std::uint8_t *ages = &age[set * kWays];
        int hit = -1;
        for (int w = 0; w < kWays; ++w)
            if (way[w] == line)
                hit = w;
        if (hit >= 0) {
            ++hits;
        } else {
            hit = 0;
            for (int w = 1; w < kWays; ++w)
                if (ages[w] > ages[hit])
                    hit = w;
            way[hit] = line;
        }
        for (int w = 0; w < kWays; ++w)
            ++ages[w];
        ages[hit] = 0;
    }
    // Make the result observable so the loop cannot be optimized away.
    asm volatile("" : : "r"(hits) : "memory");
}

/** Probe one set of an LRU tag array; true on a hit. */
bool
probeSet(std::uint32_t *tags, std::uint8_t *age, std::size_t ways,
         std::uint32_t line)
{
    std::size_t way = ways;
    for (std::size_t w = 0; w < ways; ++w)
        if (tags[w] == line)
            way = w;
    const bool hit = way < ways;
    if (!hit) {
        way = 0;
        for (std::size_t w = 1; w < ways; ++w)
            if (age[w] > age[way])
                way = w;
        tags[way] = line;
    }
    for (std::size_t w = 0; w < ways; ++w)
        age[w] += age[w] < 255;
    age[way] = 0;
    return hit;
}

/** A miniature hierarchy replay: stream a 16 MB line trace through a
 *  64 KB 4-way L1 and, on a miss, a 2 MB 16-way L2 tag array. */
void
cacheReplay(const std::vector<std::uint32_t> &trace)
{
    constexpr std::size_t kL1Sets = 2048, kL1Ways = 4;
    constexpr std::size_t kL2Sets = 16384, kL2Ways = 16;
    std::vector<std::uint32_t> l1(kL1Sets * kL1Ways, ~0u);
    std::vector<std::uint32_t> l2(kL2Sets * kL2Ways, ~0u);
    std::vector<std::uint8_t> l1Age(l1.size()), l2Age(l2.size());
    std::uint64_t hits = 0;
    for (const std::uint32_t line : trace) {
        const std::size_t s1 = line % kL1Sets * kL1Ways;
        const std::size_t s2 = line % kL2Sets * kL2Ways;
        hits += probeSet(&l1[s1], &l1Age[s1], kL1Ways, line) ||
            probeSet(&l2[s2], &l2Age[s2], kL2Ways, line);
    }
    asm volatile("" : : "r"(hits) : "memory");
}

/** Read a 64 MB array one cache line at a time, 20 times: DRAM
 *  bandwidth. */
void
memoryStream(const std::vector<std::uint64_t> &data)
{
    std::uint64_t sum = 0;
    for (int pass = 0; pass < 20; ++pass)
        for (std::size_t i = static_cast<std::size_t>(pass) % 8;
             i < data.size(); i += 8)
            sum += data[i];
    asm volatile("" : : "r"(sum) : "memory");
}

template <typename Fn>
double
timedSeconds(Fn &&fn)
{
    const auto t0 = Clock::now();
    fn();
    return secondsSince(t0);
}

} // namespace

double
runReference(int threads)
{
    std::vector<std::uint32_t> trace(4u << 20);
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    for (std::size_t i = 0; i < trace.size(); ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        trace[i] = (i & 1) ? static_cast<std::uint32_t>(i & 0xfffff)
                           : static_cast<std::uint32_t>(x & 0x7ffff);
    }
    const std::vector<std::uint64_t> data(8u << 20, 1);

    const double serial = timedSeconds(tagProbe);
    const double parallel = timedSeconds([threads] {
        std::vector<std::thread> pool;
        for (int t = 0; t < threads; ++t)
            pool.emplace_back(tagProbe);
        for (auto &t : pool)
            t.join();
    });
    const double replay = timedSeconds([&] { cacheReplay(trace); });
    const double stream = timedSeconds([&] { memoryStream(data); });
    return std::pow(serial * parallel * replay * stream, 0.25);
}

double
referenceSeconds(int threads)
{
    return std::strtod(
        runSelf({"--reference", std::to_string(threads)}).c_str(),
        nullptr);
}

// ---------------------------------------------------------------------------
// Statistics

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : (values[n / 2 - 1] + values[n / 2]) / 2;
}

std::array<double, 3>
quartiles(std::vector<double> values)
{
    if (values.empty())
        return {0, 0, 0};
    if (values.size() == 1)
        return {values[0], values[0], values[0]};
    std::sort(values.begin(), values.end());
    // statistics.quantiles(method="exclusive") with integer arithmetic:
    // position i*(n+1)/4, clamped to the data, linearly interpolated.
    const long ld = static_cast<long>(values.size());
    const long m = ld + 1;
    std::array<double, 3> out{};
    for (long i = 1; i <= 3; ++i) {
        long j = i * m / 4;
        j = std::clamp(j, 1L, ld - 1);
        const long delta = i * m - j * 4;
        out[static_cast<std::size_t>(i - 1)] =
            (values[static_cast<std::size_t>(j - 1)] *
                 static_cast<double>(4 - delta) +
             values[static_cast<std::size_t>(j)] *
                 static_cast<double>(delta)) /
            4.0;
    }
    return out;
}

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    const double rank = std::ceil(p * static_cast<double>(values.size()));
    const std::size_t idx = static_cast<std::size_t>(
        std::clamp(rank, 1.0, static_cast<double>(values.size())));
    return values[idx - 1];
}

double
tailValue(std::vector<double> values)
{
    const std::size_t n = values.size();
    if (n < 20)
        return values.empty()
            ? 0
            : *std::max_element(values.begin(), values.end());
    const double p =
        std::min(0.99, 1.0 - 10.0 / static_cast<double>(n));
    return percentile(std::move(values), p);
}

// ---------------------------------------------------------------------------
// Metrics

double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0;
}

std::string
runSelf(const std::vector<std::string> &args)
{
    char exe[4096];
    const ssize_t len = ::readlink("/proc/self/exe", exe, sizeof exe - 1);
    if (len <= 0)
        throw ConfigError("cannot resolve /proc/self/exe");
    exe[len] = '\0';
    std::vector<std::string> all = {exe};
    all.insert(all.end(), args.begin(), args.end());
    std::vector<char *> argv;
    for (auto &a : all)
        argv.push_back(a.data());
    argv.push_back(nullptr);

    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0)
        throw ConfigError("cannot create a pipe");
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    pid_t pid = 0;
    const int rc =
        ::posix_spawn(&pid, exe, &actions, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(fds[1]);
    if (rc != 0) {
        ::close(fds[0]);
        throw ConfigError("cannot start a child process");
    }
    std::string out;
    char buf[4096];
    for (;;) {
        const ssize_t n = ::read(fds[0], buf, sizeof buf);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break;
        out.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fds[0]);
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0)
        if (errno != EINTR)
            throw ConfigError("lost a child process");
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
        throw ConfigError("child process '" + args.front() + " ...' " +
                          "failed");
    return out;
}

std::string
digestOfSorted(std::vector<std::string> bodies)
{
    std::sort(bodies.begin(), bodies.end());
    std::uint64_t h = gpu::kFnvOffset;
    for (const auto &body : bodies) {
        h = gpu::fnv1aBytes(body, h);
        h = gpu::fnv1aBytes("\n", h);
    }
    return gpu::hex16(h);
}

// ---------------------------------------------------------------------------
// Spans

namespace {

thread_local std::uint64_t tlsCurrentSpan = 0;

} // namespace

std::uint64_t
Trace::reserveId()
{
    std::lock_guard<std::mutex> lock(mutex_);
    return nextId_++;
}

std::uint64_t
Trace::add(std::string name, std::string layer, std::uint64_t parent,
           std::uint64_t request, Clock::time_point start,
           Clock::time_point end)
{
    if (!recording())
        return 0;
    std::lock_guard<std::mutex> lock(mutex_);
    const std::uint64_t id = nextId_++;
    spans_.push_back({std::move(name), std::move(layer), id, parent,
                      request, start, end});
    return id;
}

std::uint64_t
Trace::current()
{
    return tlsCurrentSpan;
}

std::map<std::string, double>
Trace::selfSeconds() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::unordered_map<std::uint64_t, std::vector<std::size_t>> children;
    for (std::size_t i = 0; i < spans_.size(); ++i)
        children[spans_[i].parent].push_back(i);

    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &span = spans_[i];
        // Union of the children's intervals, clipped to the span:
        // concurrent children must not be subtracted twice.
        std::vector<std::pair<Clock::time_point, Clock::time_point>> iv;
        if (const auto it = children.find(span.id); it != children.end())
            for (std::size_t c : it->second)
                iv.emplace_back(std::max(spans_[c].start, span.start),
                                std::min(spans_[c].end, span.end));
        std::sort(iv.begin(), iv.end());
        double covered = 0;
        Clock::time_point reach = span.start;
        for (const auto &[a, b] : iv) {
            const auto lo = std::max(a, reach);
            if (b > lo) {
                covered += secondsBetween(lo, b);
                reach = b;
            }
        }
        self[span.layer] +=
            std::max(0.0, secondsBetween(span.start, span.end) - covered);
    }
    return self;
}

double
Trace::totalSeconds(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    double total = 0;
    for (const auto &span : spans_)
        if (span.name == name)
            total += secondsBetween(span.start, span.end);
    return total;
}

bool
Trace::writeJsonl(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::string out;
    char buf[160];
    for (const auto &span : spans_) {
        std::snprintf(buf, sizeof buf,
                      ",\"id\":%llu,\"parent\":%llu,\"request\":%llu,"
                      "\"start_us\":%.3f,\"end_us\":%.3f}\n",
                      static_cast<unsigned long long>(span.id),
                      static_cast<unsigned long long>(span.parent),
                      static_cast<unsigned long long>(span.request),
                      secondsBetween(epoch_, span.start) * 1e6,
                      secondsBetween(epoch_, span.end) * 1e6);
        out += "{\"name\":\"" + jsonEscape(span.name) +
            "\",\"layer\":\"" + jsonEscape(span.layer) + "\"" + buf;
    }
    try {
        atomicWriteFile(path, out);
    } catch (const Error &) {
        return false;
    }
    return true;
}

Trace::Scope::Scope(Trace &trace, std::string name, std::string layer,
                    std::uint64_t request)
    : trace_(trace),
      name_(std::move(name)),
      layer_(std::move(layer)),
      request_(request),
      parent_(tlsCurrentSpan)
{
    if (!trace_.recording())
        return;
    id_ = trace_.reserveId();
    tlsCurrentSpan = id_;
    start_ = Clock::now();
}

Trace::Scope::~Scope()
{
    if (id_ == 0)
        return;
    const auto end = Clock::now();
    tlsCurrentSpan = parent_;
    std::lock_guard<std::mutex> lock(trace_.mutex_);
    trace_.spans_.push_back({std::move(name_), std::move(layer_), id_,
                             parent_, request_, start_, end});
}

// ---------------------------------------------------------------------------
// JSON

const JsonValue *
JsonValue::find(const std::string &key) const
{
    for (const auto &[name, value] : members)
        if (name == key)
            return &value;
    return nullptr;
}

namespace {

class JsonParser
{
  public:
    explicit JsonParser(std::string_view text) : s_(text) {}

    JsonValue
    document()
    {
        JsonValue v = value();
        skipSpace();
        if (pos_ != s_.size())
            fail("trailing characters");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const std::string &what) const
    {
        throw ConfigError("malformed JSON at offset " +
                          std::to_string(pos_) + ": " + what);
    }

    void
    skipSpace()
    {
        while (pos_ < s_.size() &&
               (s_[pos_] == ' ' || s_[pos_] == '\n' ||
                s_[pos_] == '\t' || s_[pos_] == '\r'))
            ++pos_;
    }

    bool
    consume(char c)
    {
        skipSpace();
        if (pos_ < s_.size() && s_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    std::string
    string()
    {
        if (!consume('"'))
            fail("expected a string");
        const std::size_t begin = pos_;
        while (pos_ < s_.size() && s_[pos_] != '"')
            pos_ += s_[pos_] == '\\' ? 2 : 1;
        if (pos_ >= s_.size())
            fail("unterminated string");
        std::string out;
        if (!jsonUnescape(s_.substr(begin, pos_ - begin), out))
            fail("bad escape");
        ++pos_;
        return out;
    }

    bool
    literal(std::string_view word)
    {
        if (s_.substr(pos_, word.size()) != word)
            return false;
        pos_ += word.size();
        return true;
    }

    JsonValue
    value()
    {
        JsonValue v;
        skipSpace();
        if (pos_ >= s_.size())
            fail("unexpected end");
        const char c = s_[pos_];
        if (c == '{') {
            ++pos_;
            v.kind = JsonValue::Kind::Object;
            if (consume('}'))
                return v;
            do {
                std::string key = string();
                if (!consume(':'))
                    fail("expected ':'");
                v.members.emplace_back(std::move(key), value());
            } while (consume(','));
            if (!consume('}'))
                fail("expected '}'");
        } else if (c == '[') {
            ++pos_;
            v.kind = JsonValue::Kind::Array;
            if (consume(']'))
                return v;
            do {
                v.items.push_back(value());
            } while (consume(','));
            if (!consume(']'))
                fail("expected ']'");
        } else if (c == '"') {
            v.kind = JsonValue::Kind::String;
            v.text = string();
        } else if (literal("true")) {
            v.kind = JsonValue::Kind::Bool;
            v.boolean = true;
        } else if (literal("false")) {
            v.kind = JsonValue::Kind::Bool;
        } else if (literal("null")) {
            v.kind = JsonValue::Kind::Null;
        } else {
            const std::string rest(s_.substr(pos_, 64));
            char *end = nullptr;
            v.number = std::strtod(rest.c_str(), &end);
            if (end == rest.c_str())
                fail("unexpected character");
            v.kind = JsonValue::Kind::Number;
            pos_ += static_cast<std::size_t>(end - rest.c_str());
        }
        return v;
    }

    std::string_view s_;
    std::size_t pos_ = 0;
};

} // namespace

JsonValue
parseJson(std::string_view text)
{
    return JsonParser(text).document();
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw ConfigError("cannot read '" + path + "'");
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

// ---------------------------------------------------------------------------
// BENCHMARK.json

const MetricSpec *
BenchSpec::find(const std::string &name) const
{
    for (const auto &m : metrics)
        if (m.name == name)
            return &m;
    return nullptr;
}

BenchSpec
loadSpec(const std::string &path)
{
    const JsonValue root = parseJson(readFile(path));
    const auto need = [&](const JsonValue *v, JsonValue::Kind kind,
                          const std::string &what) -> const JsonValue & {
        if (v == nullptr || v->kind != kind)
            throw ConfigError(path + ": missing or mistyped '" + what +
                              "'");
        return *v;
    };
    BenchSpec spec;
    spec.runSeconds = static_cast<int>(
        need(root.find("run_seconds"), JsonValue::Kind::Number,
             "run_seconds")
            .number);
    for (const auto &w : need(root.find("workloads"),
                              JsonValue::Kind::Array, "workloads")
                             .items)
        spec.workloads.push_back(
            need(w.find("name"), JsonValue::Kind::String, "name").text);
    for (const char *section : {"end_to_end", "per_layer"}) {
        for (const auto &m :
             need(root.find(section), JsonValue::Kind::Array, section)
                 .items) {
            MetricSpec ms;
            ms.name =
                need(m.find("name"), JsonValue::Kind::String, "name").text;
            ms.unit =
                need(m.find("unit"), JsonValue::Kind::String, "unit").text;
            ms.higherIsBetter =
                need(m.find("better"), JsonValue::Kind::String, "better")
                    .text == "higher";
            ms.endToEnd = std::string(section) == "end_to_end";
            if (ms.endToEnd)
                ms.bound = need(m.find("bound"), JsonValue::Kind::Number,
                                "bound")
                               .number;
            spec.metrics.push_back(std::move(ms));
        }
    }
    return spec;
}

// ---------------------------------------------------------------------------
// Digest table

DigestTable
DigestTable::load(const std::string &path)
{
    DigestTable table;
    std::istringstream in(readFile(path));
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string workload, size, digest;
        if (!(fields >> workload >> size >> digest))
            throw ConfigError(path + ": malformed line '" + line + "'");
        table.set(workload, size, digest);
    }
    return table;
}

std::string
DigestTable::find(const std::string &workload,
                  const std::string &size) const
{
    const auto it = entries_.find({workload, size});
    return it == entries_.end() ? std::string() : it->second;
}

void
DigestTable::set(const std::string &workload, const std::string &size,
                 const std::string &digest)
{
    entries_[{workload, size}] = digest;
}

void
DigestTable::save(const std::string &path) const
{
    std::string out =
        "# Expected result digests per workload and size: FNV-1a over\n"
        "# the sorted canonical result bodies (sweep-l1: the merged\n"
        "# report). Seed-independent. Rewrite with --record-digests\n"
        "# after an intentional model change.\n";
    for (const auto &[key, digest] : entries_)
        out += key.first + " " + key.second + " " + digest + "\n";
    atomicWriteFile(path, out);
}

} // namespace cactus::bench
