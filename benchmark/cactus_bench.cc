/**
 * @file
 * The repository benchmark's program. One run measures one workload
 * (see workloads.hh) and prints one "workload metric value unit" line
 * per metric, then the result as a single JSON object on the last line
 * of standard output:
 *
 *   {"correct":true,"attempted":N,"failed":0,"metrics":{...}}
 *
 * Untraced runs report the end-to-end metrics of BENCHMARK.json;
 * traced runs (--trace 1) report its per-layer metrics and write the
 * recorded spans as JSON lines. The exit status is non-zero when any
 * correctness check fails: a golden mismatch, a failed task or
 * request, a byte-identity violation, or a result digest that differs
 * from benchmark/digests.txt.
 *
 * Usage:
 *   cactus_bench --workload W [--seed N] [--seconds S] [--trace 0|1]
 *                [--smoke] [--work-dir D] [--trace-out F]
 *                [--record-digests]
 *   cactus_bench --smoke                self-test: every workload at
 *                                       smoke size, traced and not
 *   cactus_bench --compare PARENT CHANGE
 *   cactus_bench --spread RUNS
 *   cactus_bench --list-workloads
 *
 * An untraced run starts itself again with --setup-only (each timed
 * set-up) and --op (each cold closed-loop operation), so every
 * operation pays what one tool invocation pays, and every run starts
 * it with --reference N to time the speed reference (support.hh).
 *
 * Result files (PARENT, CHANGE, RUNS) hold one JSON object per line,
 * {"workload":W,"seed":N,"trace":0,"result":{...}}, as run.sh --out
 * writes them.
 */

#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/error.hh"
#include "common/json.hh"
#include "common/parse.hh"
#include "support.hh"
#include "workloads.hh"

namespace {

using namespace cactus;
using namespace cactus::bench;

const std::string kSpecPath = CACTUS_BENCH_DIR "/../BENCHMARK.json";
const std::string kDigestsPath = CACTUS_BENCH_DIR "/digests.txt";
const std::string kGoldensPath =
    CACTUS_BENCH_DIR "/../tests/goldens/digests.txt";

/** Set-ups timed per run; setup_s is their median. */
constexpr int kSetupRepeats = 21;

/** Host threads the speed reference uses around the set-ups. */
constexpr int kSetupReferenceThreads = 4;

/**
 * Time one set-up from a fresh process: exec, static initialization
 * (the benchmark registry), and the workload's own set-up, to exit.
 */
double
timeSetup(const RunOptions &o)
{
    std::vector<std::string> args = {"--setup-only", "--workload",
                                     o.workload, "--seed",
                                     std::to_string(o.seed), "--work-dir",
                                     o.workDir};
    if (o.smoke)
        args.push_back("--smoke");
    const auto t0 = Clock::now();
    runSelf(args);
    return secondsSince(t0);
}

std::string
fmtValue(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/** The contract's result object, metrics in BENCHMARK.json order. */
std::string
resultJson(const RunResult &r, const BenchSpec &spec)
{
    std::string out = std::string("{\"correct\":") +
        (r.correct ? "true" : "false") +
        ",\"attempted\":" + std::to_string(r.attempted) +
        ",\"failed\":" + std::to_string(r.failed) + ",\"metrics\":{";
    bool first = true;
    for (const auto &ms : spec.metrics) {
        const auto it = r.metrics.find(ms.name);
        if (it == r.metrics.end())
            continue;
        out += first ? "\"" : ",\"";
        first = false;
        out += jsonEscape(ms.name);
        out += "\":{\"value\":" + fmtValue(it->second.value);
        out += ",\"unit\":\"" + jsonEscape(it->second.unit) + "\"}";
    }
    return out + "}}";
}

/**
 * Hold a run's metrics to BENCHMARK.json: every name it reports must
 * be listed there, in the section the run reports, with the same unit,
 * and every end-to-end metric must be present. Per-layer metrics of
 * layers a workload does not exercise read 0. Returns the problems.
 */
std::vector<std::string>
conform(RunResult &r, const BenchSpec &spec, bool traced)
{
    std::vector<std::string> problems;
    for (const auto &[name, metric] : r.metrics) {
        const MetricSpec *ms = spec.find(name);
        if (ms == nullptr || ms->endToEnd == traced)
            problems.push_back("metric '" + name +
                               "' is not a BENCHMARK.json " +
                               (traced ? "per_layer" : "end_to_end") +
                               " metric");
        else if (ms->unit != metric.unit)
            problems.push_back("metric '" + name + "' has unit '" +
                               metric.unit + "', BENCHMARK.json says '" +
                               ms->unit + "'");
        else if (!std::isfinite(metric.value))
            problems.push_back("metric '" + name + "' is not finite");
    }
    for (const auto &ms : spec.metrics) {
        if (ms.endToEnd == traced || r.metrics.count(ms.name))
            continue;
        if (ms.endToEnd)
            problems.push_back("end-to-end metric '" + ms.name +
                               "' was not measured");
        else
            r.metrics[ms.name] = {0.0, ms.unit};
    }
    return problems;
}

struct Args
{
    RunOptions run;
    bool secondsGiven = false;
    bool setupOnly = false;
    bool op = false; ///< One cold operation, as a child.
    int referenceThreads = 0; ///< > 0: time the speed reference.
    bool recordDigests = false;
    bool listWorkloads = false;
    std::string traceOut;
    std::vector<std::string> compare;
    std::string spread;
};

/**
 * Run one workload end to end: timed set-ups, the measured phase, the
 * digest gate, and the result. Returns the result with its metrics
 * conformed to BENCHMARK.json; @p measured (optional) receives the
 * names the run measured before conforming.
 */
RunResult
measure(const RunOptions &o, const BenchSpec &spec, bool recordDigests,
        const std::string &traceOut,
        std::set<std::string> *measured = nullptr)
{
    std::vector<double> setups;
    if (!o.trace) {
        SpeedReference ref(kSetupReferenceThreads);
        for (int k = 0; k < kSetupRepeats; ++k)
            setups.push_back(timeSetup(o));
        const double factor = ref.mark();
        for (double &s : setups)
            s *= factor;
    }

    Trace trace;
    RunResult r = runWorkload(o, trace);
    if (!o.trace) {
        r.metrics["setup_s"] = {median(setups), "s"};
    } else if (!traceOut.empty() && !trace.writeJsonl(traceOut)) {
        r.fail("cannot write the trace to " + traceOut);
    }
    if (measured != nullptr)
        for (const auto &[name, metric] : r.metrics)
            measured->insert(name);
    for (auto &p : conform(r, spec, o.trace))
        r.fail(std::move(p));

    DigestTable table = DigestTable::load(kDigestsPath);
    const std::string size = o.smoke ? "smoke" : "full";
    if (recordDigests) {
        table.set(o.workload, size, r.digest);
        table.save(kDigestsPath);
    } else if (table.find(o.workload, size) != r.digest) {
        r.fail(o.workload + " result digest " + r.digest +
               " differs from the recorded " +
               table.find(o.workload, size));
    }
    return r;
}

int
runOne(const Args &a, const BenchSpec &spec)
{
    const RunResult r =
        measure(a.run, spec, a.recordDigests, a.traceOut);
    for (const auto &ms : spec.metrics) {
        const auto it = r.metrics.find(ms.name);
        if (it != r.metrics.end())
            std::printf("%s %s %s %s\n", a.run.workload.c_str(),
                        ms.name.c_str(), fmtValue(it->second.value).c_str(),
                        it->second.unit.c_str());
    }
    for (const auto &p : r.problems)
        std::fprintf(stderr, "FAIL: %s\n", p.c_str());
    std::printf("%s\n", resultJson(r, spec).c_str());
    return r.correct ? 0 : 1;
}

/**
 * The self-test: every workload at smoke size, untraced and traced.
 * Passes when every run is correct, every metric a run reports is in
 * BENCHMARK.json with its unit, and every per-layer metric there is
 * measured by at least one workload.
 */
int
smokeAll(const Args &a, const BenchSpec &spec)
{
    int failures = 0;
    if (spec.workloads != workloadNames()) {
        std::fprintf(stderr, "FAIL: BENCHMARK.json workloads differ "
                             "from the program's\n");
        ++failures;
    }
    std::set<std::string> measured;
    for (const auto &w : workloadNames()) {
        for (bool traced : {false, true}) {
            RunOptions o = a.run;
            o.workload = w;
            o.smoke = true;
            o.trace = traced;
            o.seconds = 1;
            const RunResult r = measure(o, spec, false, "", &measured);
            std::printf("%-13s %-8s %s\n", w.c_str(),
                        traced ? "traced" : "untraced",
                        r.correct ? "ok" : "FAIL");
            for (const auto &p : r.problems)
                std::fprintf(stderr, "FAIL: %s: %s\n", w.c_str(),
                             p.c_str());
            failures += r.correct ? 0 : 1;
        }
    }
    for (const auto &ms : spec.metrics) {
        if (!ms.endToEnd && !measured.count(ms.name)) {
            std::fprintf(stderr,
                         "FAIL: per-layer metric '%s' is measured by "
                         "no workload\n",
                         ms.name.c_str());
            ++failures;
        }
    }
    std::printf("smoke: %s\n", failures == 0 ? "ok" : "FAIL");
    return failures == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Result files: --spread and --compare

/** (workload, metric) -> values, in file order, of correct untraced
 *  runs. */
using Samples = std::map<std::pair<std::string, std::string>,
                         std::vector<double>>;

Samples
loadRuns(const std::string &path)
{
    Samples samples;
    std::ifstream in(path);
    if (!in)
        throw ConfigError("cannot read '" + path + "'");
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        const JsonValue run = parseJson(line);
        const JsonValue *workload = run.find("workload");
        const JsonValue *result = run.find("result");
        const JsonValue *trace = run.find("trace");
        if (workload == nullptr || result == nullptr)
            throw ConfigError(path + ": run without workload/result");
        if (trace != nullptr && trace->number != 0)
            continue;
        const JsonValue *correct = result->find("correct");
        const JsonValue *metrics = result->find("metrics");
        if (correct == nullptr || !correct->boolean || metrics == nullptr)
            continue;
        for (const auto &[name, metric] : metrics->members)
            if (const JsonValue *v = metric.find("value"))
                samples[{workload->text, name}].push_back(v->number);
    }
    return samples;
}

double
relSpread(const std::vector<double> &v)
{
    const auto q = quartiles(v);
    return q[1] != 0 ? (q[2] - q[0]) / std::fabs(q[1]) : 0.0;
}

/**
 * Per (workload, end-to-end metric): sample count, median, quartiles,
 * and the relative spread (q3 - q1) / median against the metric's
 * bound. Non-zero exit when a spread other than setup_s's reaches its
 * bound; "wide" marks spreads above a third of it.
 */
int
spreadReport(const std::string &path, const BenchSpec &spec)
{
    const Samples samples = loadRuns(path);
    int over = 0;
    std::printf("%-13s %-14s %3s %14s %14s %14s %8s %6s  %s\n",
                "workload", "metric", "n", "q1", "median", "q3",
                "spread", "bound", "");
    for (const auto &w : spec.workloads) {
        for (const auto &ms : spec.metrics) {
            const auto it = samples.find({w, ms.name});
            if (!ms.endToEnd || it == samples.end())
                continue;
            const auto q = quartiles(it->second);
            const double s = relSpread(it->second);
            const bool exempt = ms.name == "setup_s";
            const char *flag = exempt            ? "(not gated)"
                : s >= ms.bound                  ? "OVER BOUND"
                : s >= ms.bound / 3              ? "wide"
                                                 : "";
            over += !exempt && s >= ms.bound;
            std::printf("%-13s %-14s %3zu %14.6g %14.6g %14.6g %7.2f%% "
                        "%5.0f%%  %s\n",
                        w.c_str(), ms.name.c_str(), it->second.size(),
                        q[0], q[1], q[2], 100 * s, 100 * ms.bound, flag);
        }
    }
    return over == 0 ? 0 : 1;
}

/**
 * One row per (workload, end-to-end metric) under the rules of the
 * choosing-metrics method: unresolved when the parent's own spread is
 * wider than the bound (unless every change run beats every parent
 * run); worse when the change's median is worse by more than the
 * bound; better when the change wins at least 9 in 10 pairs and the
 * medians differ by more than the parent's interquartile distance;
 * unchanged otherwise. Non-zero exit on any "worse".
 */
int
compareReport(const std::string &parentPath,
              const std::string &changePath, const BenchSpec &spec)
{
    const Samples parent = loadRuns(parentPath);
    const Samples change = loadRuns(changePath);
    int worse = 0;
    std::printf("%-13s %-14s %-32s %-32s %-34s %s\n", "workload",
                "metric", "parent median [q1, q3] n",
                "change median [q1, q3] n", "change/parent (base)",
                "verdict");
    for (const auto &w : spec.workloads) {
        for (const auto &ms : spec.metrics) {
            const auto pi = parent.find({w, ms.name});
            const auto ci = change.find({w, ms.name});
            if (!ms.endToEnd || pi == parent.end() ||
                ci == change.end())
                continue;
            const auto &p = pi->second;
            const auto &c = ci->second;
            const auto pq = quartiles(p);
            const auto cq = quartiles(c);
            const auto better = [&ms](double x, double y) {
                return ms.higherIsBetter ? x > y : x < y;
            };
            std::size_t wins = 0;
            const std::size_t pairs = std::min(p.size(), c.size());
            for (std::size_t k = 0; k < pairs; ++k)
                wins += better(c[k], p[k]);
            bool all_better = true;
            for (double cv : c)
                for (double pv : p)
                    all_better = all_better && better(cv, pv);
            const double ratio = pq[1] != 0 ? cq[1] / pq[1] : 0.0;
            const double worse_by =
                ms.higherIsBetter ? 1.0 - ratio : ratio - 1.0;
            const char *verdict = "unchanged";
            if (relSpread(p) > ms.bound && !all_better)
                verdict = "unresolved";
            else if (worse_by > ms.bound)
                verdict = "worse";
            else if (better(cq[1], pq[1]) &&
                     static_cast<double>(wins) >=
                         0.9 * static_cast<double>(pairs) &&
                     std::fabs(cq[1] - pq[1]) > pq[2] - pq[0])
                verdict = "better";
            worse += std::string(verdict) == "worse";
            char pbuf[64], cbuf[64], rbuf[64];
            std::snprintf(pbuf, sizeof pbuf, "%.5g [%.5g, %.5g] %zu",
                          pq[1], pq[0], pq[2], p.size());
            std::snprintf(cbuf, sizeof cbuf, "%.5g [%.5g, %.5g] %zu",
                          cq[1], cq[0], cq[2], c.size());
            std::snprintf(rbuf, sizeof rbuf, "%.4f (of %.5g %s)", ratio,
                          pq[1], ms.unit.c_str());
            std::printf("%-13s %-14s %-32s %-32s %-34s %s\n", w.c_str(),
                        ms.name.c_str(), pbuf, cbuf, rbuf, verdict);
        }
    }
    return worse == 0 ? 0 : 1;
}

int
runMain(int argc, char **argv)
{
    Args a;
    a.run.workDir = CACTUS_BENCH_BUILD_DIR "/work";
    a.run.goldensPath = kGoldensPath;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                throw ConfigError("missing value after " + arg);
            return argv[++i];
        };
        if (arg == "--workload") {
            a.run.workload = next();
        } else if (arg == "--seed") {
            a.run.seed = parseUint64(next(), "--seed");
        } else if (arg == "--seconds") {
            a.run.seconds = parseDouble(next(), "--seconds");
            if (!(a.run.seconds > 0))
                throw ConfigError("--seconds expects a positive value");
            a.secondsGiven = true;
        } else if (arg == "--trace") {
            const std::string v = next();
            if (v != "0" && v != "1")
                throw ConfigError("--trace expects 0 or 1");
            a.run.trace = v == "1";
        } else if (arg == "--smoke") {
            a.run.smoke = true;
        } else if (arg == "--work-dir") {
            a.run.workDir = next();
        } else if (arg == "--trace-out") {
            a.traceOut = next();
        } else if (arg == "--record-digests") {
            a.recordDigests = true;
        } else if (arg == "--setup-only") {
            a.setupOnly = true;
        } else if (arg == "--reference") {
            a.referenceThreads =
                parsePositiveInt(next(), "--reference");
        } else if (arg == "--op") {
            a.op = true;
        } else if (arg == "--list-workloads") {
            a.listWorkloads = true;
        } else if (arg == "--compare") {
            a.compare = {next(), next()};
        } else if (arg == "--spread") {
            a.spread = next();
        } else {
            throw ConfigError("unknown option '" + arg + "'");
        }
    }

    if (a.setupOnly) {
        setupWorkload(a.run);
        return 0;
    }
    if (a.referenceThreads > 0) {
        std::printf("%.9g\n", runReference(a.referenceThreads));
        return 0;
    }
    if (a.op) {
        std::printf("%s", childOp(a.run).c_str());
        return 0;
    }
    if (a.listWorkloads) {
        for (const auto &w : workloadNames())
            std::printf("%s\n", w.c_str());
        return 0;
    }
    const BenchSpec spec = loadSpec(kSpecPath);
    if (!a.compare.empty())
        return compareReport(a.compare[0], a.compare[1], spec);
    if (!a.spread.empty())
        return spreadReport(a.spread, spec);
    if (a.run.workload.empty()) {
        if (a.run.smoke)
            return smokeAll(a, spec);
        throw ConfigError("need --workload, --smoke, --compare or "
                          "--spread");
    }
    if (!a.secondsGiven)
        a.run.seconds = a.run.smoke ? 1 : spec.runSeconds;
    if (a.run.trace && a.traceOut.empty())
        a.traceOut = CACTUS_BENCH_BUILD_DIR "/trace-" + a.run.workload +
            ".jsonl";
    return runOne(a, spec);
}

} // namespace

int
main(int argc, char **argv)
{
    return guardedMain([&] { return runMain(argc, argv); });
}
