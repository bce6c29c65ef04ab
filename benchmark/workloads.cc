#include "workloads.hh"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <thread>

#include "analysis/famd.hh"
#include "analysis/hcluster.hh"
#include "analysis/pearson.hh"
#include "analysis/roofline.hh"
#include "common/error.hh"
#include "common/json.hh"
#include "common/rng.hh"
#include "common/zipf.hh"
#include "core/benchmark.hh"
#include "core/campaign.hh"
#include "core/coord.hh"
#include "core/harness.hh"
#include "core/serve.hh"
#include "core/sweep.hh"
#include "core/verify.hh"

namespace cactus::bench {

namespace {

namespace fs = std::filesystem;

/** Host threads per simulation: nproc of the 4-core reference host.
 *  Results are identical for any value; only wall-clock moves. */
constexpr int kHostThreads = 4;

/** Concurrent client connections of the serve load generator. */
constexpr int kServeConnections = 4;

/** Parts of the serve workload's measured phase; see runServeZipf. */
constexpr int kServeParts = 4;

/** The repository's modules, as span layers. "bench" is the
 *  benchmark's own code around the calls it makes. */
const std::vector<std::string> kLayers = {
    "gpu",           "workloads",  "core.harness", "core.verify",
    "core.campaign", "core.sweep", "core.coord",   "core.serve",
    "analysis",      "bench"};

/** Individual spans whose share of the traced phase is reported. */
const std::vector<std::pair<std::string, std::string>> kNamedSpans = {
    {"analysis.roofline_pct", "roofline"},
    {"analysis.famd_pct", "famd"},
    {"analysis.ward_pct", "ward"},
    {"analysis.pearson_pct", "pearson"},
    {"core.sweep.merge_pct", "merge"},
    {"core.sweep.report_pct", "report"},
    {"core.serve.cache_load_pct", "cache_load"},
    {"core.serve.cache_save_pct", "cache_save"}};

// Benchmark sets. cactus-small keeps the Small-scale pass near 5 s on
// the reference host: LGT, RFL, LMC, DCG and LMR alone take longer than
// the rest together. sweep-l1 leaves out spmv and lbm, which would
// otherwise be 60% of every round.
const std::vector<std::string> kSmallSet = {"GMS", "GST", "GRU", "NST",
                                            "SPT"};
const std::vector<std::string> kSweepExcluded = {"lbm", "spmv"};
const std::vector<std::string> kServeSet = {
    "GST", "GRU", "SN", "stencil", "sgemm", "pb_bfs", "mri_q", "histo"};
const std::vector<std::string> kSmokeSet = {"SN", "GRU"};

constexpr const char *kSweepAxis = "l1_kb=32,64,128,256";

gpu::DeviceConfig
experimentConfig(int threads)
{
    gpu::DeviceConfig cfg = gpu::DeviceConfig::scaledExperiment();
    cfg.hostThreads = threads;
    return cfg;
}

/** The registered benchmarks named in @p names, in that order. */
std::vector<core::BenchmarkInfo>
lookup(const std::vector<std::string> &names)
{
    std::vector<core::BenchmarkInfo> infos;
    for (const auto &name : names) {
        bool found = false;
        for (const auto *info : core::Registry::instance().list()) {
            if (info->name == name) {
                infos.push_back(*info);
                found = true;
            }
        }
        if (!found)
            throw ConfigError("benchmark '" + name + "' is not registered");
    }
    return infos;
}

/** Every registered benchmark except @p excluded. */
std::vector<core::BenchmarkInfo>
registryExcept(const std::vector<std::string> &excluded)
{
    std::vector<core::BenchmarkInfo> infos;
    for (const auto *info : core::Registry::instance().list())
        if (std::find(excluded.begin(), excluded.end(), info->name) ==
            excluded.end())
            infos.push_back(*info);
    return infos;
}

std::vector<std::string>
namesOf(const std::vector<core::BenchmarkInfo> &infos)
{
    std::vector<std::string> names;
    for (const auto &info : infos)
        names.push_back(info.name);
    return names;
}

template <typename Fn>
double
timeMs(Fn &&fn)
{
    const auto t0 = Clock::now();
    fn();
    return secondsSince(t0) * 1e3;
}

/** Time @p fn into @p acc, inside a span when recording. */
template <typename Fn>
void
timed(Trace &trace, const char *name, const char *layer, double &acc,
      Fn &&fn)
{
    Trace::Scope span(trace, name, layer);
    const auto t0 = Clock::now();
    fn();
    acc += secondsSince(t0);
}

void
merge(Metrics &into, const Metrics &from)
{
    for (const auto &[name, metric] : from)
        into[name] = metric;
}

// ---------------------------------------------------------------------------
// Decomposed profiling: the calls core::runProfiled makes, one span each

struct LayerTimes
{
    double create = 0;
    double deviceNew = 0;
    double run = 0;
    double profile = 0;
    double serialize = 0;
};

struct Profiled
{
    core::BenchmarkProfile profile;
    std::string body;
    std::uint64_t sampledWarps = 0;
};

Profiled
profileOne(const std::string &name, core::Scale scale,
           const gpu::DeviceConfig &cfg, Trace &trace, LayerTimes &t)
{
    Profiled out;
    std::unique_ptr<core::Benchmark> bench;
    timed(trace, "create", "workloads", t.create, [&] {
        bench = core::Registry::instance().create(name, scale);
    });
    std::unique_ptr<gpu::Device> dev;
    timed(trace, "device_new", "gpu", t.deviceNew,
          [&] { dev = std::make_unique<gpu::Device>(cfg); });
    timed(trace, "run", "gpu", t.run, [&] { bench->run(*dev); });
    timed(trace, "profile", "core.harness", t.profile, [&] {
        out.profile = core::profileFromDevice(*bench, *dev, cfg);
    });
    timed(trace, "serialize", "core.harness", t.serialize, [&] {
        const auto output = bench->verify();
        out.body = core::serializeResultBody(
            out.profile, output ? &*output : nullptr,
            core::scaleToken(scale), cfg);
    });
    for (const auto &launch : dev->launches())
        out.sampledWarps += launch.sampledWarps;
    Trace::Scope span(trace, "device_free", "gpu");
    dev.reset();
    return out;
}

/**
 * The layer probe of a traced run: profile each of the workload's
 * benchmarks once through the decomposed calls (K = 1), then once more
 * with three extra hierarchy replicas (K = 4). The replicas replay the
 * same execution, so (t4 - t1) / 3 is the replay cost of one hierarchy
 * and the rest of t1 is functional execution.
 */
Metrics
probeLayers(std::vector<std::string> names, core::Scale scale,
            gpu::DeviceConfig cfg, Trace &trace)
{
    trace.setRecording(true);
    Trace::Scope probe(trace, "probe", "bench");
    LayerTimes t;
    double run4 = 0;
    std::uint64_t launches = 0, warp_insts = 0, sampled = 0;
    std::vector<double> gaps_us;
    std::optional<Clock::time_point> last;
    cfg.onLaunchBoundary = [&] {
        const auto now = Clock::now();
        if (last)
            gaps_us.push_back(secondsBetween(*last, now) * 1e6);
        last = now;
    };
    std::sort(names.begin(), names.end());
    for (const auto &name : names) {
        last.reset();
        const Profiled r = profileOne(name, scale, cfg, trace, t);
        launches += r.profile.launches;
        warp_insts += r.profile.totalWarpInsts;
        sampled += r.sampledWarps;

        auto bench = core::Registry::instance().create(name, scale);
        gpu::DeviceConfig lead = cfg;
        lead.onLaunchBoundary = nullptr;
        gpu::Device dev(lead);
        for (int kb : {32, 64, 128}) {
            gpu::DeviceConfig replica = lead;
            replica.l1SizeBytes = kb * 1024;
            dev.addReplica(replica);
        }
        timed(trace, "run_x4", "gpu", run4, [&] { bench->run(dev); });
    }
    trace.setRecording(false);
    const double replay = (run4 - t.run) / 3;
    Metrics m;
    m["gpu.device_new_ms"] = {t.deviceNew * 1e3, "ms"};
    m["gpu.run_ms"] = {t.run * 1e3, "ms"};
    m["gpu.exec_ms"] = {(t.run - replay) * 1e3, "ms"};
    m["gpu.replay_ms"] = {replay * 1e3, "ms"};
    m["gpu.replay_pct"] = {t.run > 0 ? 100.0 * replay / t.run : 0.0, "%"};
    m["gpu.ns_per_warp_inst"] = {
        warp_insts > 0 ? t.run * 1e9 / static_cast<double>(warp_insts)
                       : 0.0,
        "ns"};
    m["gpu.launch_gap_p50_us"] = {percentile(gaps_us, 0.5), "us"};
    m["gpu.launch_gap_p99_us"] = {percentile(gaps_us, 0.99), "us"};
    m["gpu.launches"] = {static_cast<double>(launches), "count"};
    m["gpu.warp_insts"] = {static_cast<double>(warp_insts), "count"};
    m["gpu.sampled_warps"] = {static_cast<double>(sampled), "count"};
    m["workloads.create_ms"] = {t.create * 1e3, "ms"};
    m["core.harness.profile_ms"] = {t.profile * 1e3, "ms"};
    m["core.harness.serialize_ms"] = {t.serialize * 1e3, "ms"};
    return m;
}

/**
 * The traced phase's per-layer metrics: each layer's share of the
 * recorded self time, the shares of individually named spans, and the
 * tracing overhead (median traced op against median untraced op, both
 * at nominal speed).
 */
void
traceMetrics(RunResult &res, const Trace &trace,
             const std::vector<double> &plainMs,
             const std::vector<double> &tracedMs)
{
    const auto self = trace.selfSeconds();
    double total = 0;
    for (const auto &[layer, s] : self)
        total += s;
    const auto share = [total](double s) {
        return total > 0 ? 100.0 * s / total : 0.0;
    };
    for (const auto &layer : kLayers) {
        const auto it = self.find(layer);
        res.metrics[layer + ".self_pct"] = {
            share(it == self.end() ? 0.0 : it->second), "%"};
    }
    for (const auto &[metric, span] : kNamedSpans)
        res.metrics[metric] = {share(trace.totalSeconds(span)), "%"};
    const double plain = median(plainMs);
    res.metrics["trace.overhead_pct"] = {
        plain > 0 ? 100.0 * (median(tracedMs) / plain - 1.0) : 0.0, "%"};
}

// ---------------------------------------------------------------------------
// Campaign task spans, reconstructed from the runner's public hooks

/**
 * DeviceConfig::onLaunchBoundary marks each launch boundary and
 * CampaignOptions::onEntry reports each settled task with its wall
 * time, so a task's span ends at its onEntry and covers its wall time,
 * with one gpu span per launch interval inside it. The first OK entry
 * of a benchmark is the one whose execution just ran: members of a
 * shared-trace group settle later from that same execution.
 */
class TaskSpans
{
  public:
    explicit TaskSpans(Trace &trace) : trace_(trace) {}

    TaskSpans(const TaskSpans &) = delete;
    TaskSpans &operator=(const TaskSpans &) = delete;

    /** Install both hooks; @p cfg is the config tasks copy. */
    void
    install(core::CampaignOptions &opts, gpu::DeviceConfig &cfg)
    {
        cfg.onLaunchBoundary = [this] {
            if (trace_.recording())
                marks_.push_back(Clock::now());
        };
        opts.onEntry = [this](const core::CampaignEntry &e) {
            settle(e);
        };
    }

    /** Start a new campaign. */
    void
    reset()
    {
        ran_.clear();
        marks_.clear();
    }

  private:
    void
    settle(const core::CampaignEntry &e)
    {
        if (trace_.recording() && e.status == core::RunStatus::OK &&
            e.wallSeconds > 0 && ran_.insert(e.name).second) {
            const auto end = Clock::now();
            const auto start = end -
                std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(e.wallSeconds));
            ++request_;
            const auto id = trace_.add(e.name, "core.harness",
                                       Trace::current(), request_, start,
                                       end);
            for (std::size_t i = 1; i < marks_.size(); ++i)
                trace_.add("launch", "gpu", id, request_, marks_[i - 1],
                           marks_[i]);
        }
        marks_.clear();
    }

    Trace &trace_;
    std::set<std::string> ran_;
    std::vector<Clock::time_point> marks_;
    std::uint64_t request_ = 0;
};

// ---------------------------------------------------------------------------
// Closed-loop workloads

/** What one operation reports. */
struct OpResult
{
    double ms = 0;           ///< Wall time of the operation.
    std::size_t results = 0; ///< Characterization results delivered.
    std::string digest;      ///< Digest of the result bodies.
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> problems;
};

/** Tally a campaign's outcome into @p op: every task must end as
 *  @p want. */
void
settleCampaign(OpResult &op, const core::CampaignResult &r,
               core::RunStatus want, const std::string &what)
{
    op.attempted += r.entries.size();
    op.failed += static_cast<std::uint64_t>(
        r.failedCount + r.timeoutCount + r.corruptCount);
    std::vector<std::string> bodies;
    std::size_t good = 0;
    for (const auto &e : r.entries) {
        bodies.push_back(e.resultBody);
        good += e.status == want;
        if (e.status != want && op.problems.size() < 3)
            op.problems.push_back(what + ": " + e.name + " " +
                                  e.label + " is " +
                                  core::runStatusName(e.status) + " " +
                                  e.error);
    }
    op.results = good;
    op.digest = digestOfSorted(std::move(bodies));
}

/** A closed loop of one caller: set up once per process, then each op
 *  is one user operation. */
class ClosedLoop
{
  public:
    virtual ~ClosedLoop() = default;

    /** One operation that simulates everything; it also persists what
     *  the warm operation reads. */
    virtual OpResult cold(Trace &trace) = 0;

    /** The same operation answered from persisted results. */
    virtual OpResult warm(Trace &trace) = 0;

    /** Per-layer counts over this process's operations, and the
     *  layer probe. */
    virtual Metrics layers(Trace &trace) = 0;
};

class SuiteTiny final : public ClosedLoop
{
  public:
    SuiteTiny(const RunOptions &o, Trace &trace)
        : spans_(trace), cachePath_(o.workDir + "/suite-cache.ndjson")
    {
        goldens_ = core::GoldenTable::load(o.goldensPath);
        infos_ = o.smoke ? lookup(kSmokeSet) : registryExcept({});
        opts_.scale = core::Scale::Tiny;
        opts_.config = experimentConfig(kHostThreads);
        opts_.verifyOutputs = true;
        opts_.goldens = &goldens_;
        if (o.trace)
            spans_.install(opts_, opts_.config);
    }

    OpResult
    cold(Trace &trace) override
    {
        OpResult op;
        core::CampaignResult r;
        op.ms = timeMs([&] {
            Trace::Scope span(trace, "runCampaign", "core.campaign");
            r = core::runCampaign(infos_, opts_);
        });
        spans_.reset();
        settleCampaign(op, r, core::RunStatus::OK, "suite-tiny");
        goldensOk_ += op.results;
        tasks_ += r.entries.size();
        // What cactus_run --cache leaves behind for the next run.
        core::ResultCache cache(4096);
        for (const auto &e : r.entries)
            cache.insert(e.taskId, e.resultBody);
        cache.saveNdjson(cachePath_);
        return op;
    }

    OpResult
    warm(Trace &trace) override
    {
        OpResult op;
        core::CampaignResult r;
        op.ms = timeMs([&] {
            core::ResultCache cache(4096);
            {
                Trace::Scope span(trace, "cache_load", "core.serve");
                cache.loadNdjson(cachePath_);
            }
            core::CampaignOptions w = opts_;
            w.cache = &cache;
            Trace::Scope span(trace, "runCampaign", "core.campaign");
            r = core::runCampaign(infos_, w);
        });
        spans_.reset();
        settleCampaign(op, r, core::RunStatus::Cached, "suite-tiny warm");
        cached_ += op.results;
        tasks_ += r.entries.size();
        return op;
    }

    Metrics
    layers(Trace &trace) override
    {
        Metrics m = probeLayers(namesOf(infos_), core::Scale::Tiny,
                                opts_.config, trace);
        m["core.verify.goldens_ok"] = {static_cast<double>(goldensOk_),
                                       "count"};
        m["core.campaign.tasks"] = {static_cast<double>(tasks_), "count"};
        m["core.campaign.cached"] = {static_cast<double>(cached_),
                                     "count"};
        return m;
    }

  private:
    TaskSpans spans_;
    const std::string cachePath_;
    core::GoldenTable goldens_;
    std::vector<core::BenchmarkInfo> infos_;
    core::CampaignOptions opts_;
    std::uint64_t goldensOk_ = 0;
    std::uint64_t tasks_ = 0;
    std::uint64_t cached_ = 0;
};

/**
 * The paper's figure analyses over profiles: roofline classification of
 * every kernel (Figs. 5-7), FAMD and Ward clustering of the dominant
 * kernels (Fig. 9), and the metric correlation matrix (Fig. 8). Returns
 * the discrete outcomes — classes, cluster labels, correlation buckets
 * — as text, so a digest over them survives last-bit floating-point
 * changes in the analyses.
 */
std::string
figureAnalyses(const std::vector<core::BenchmarkProfile> &profiles,
               Trace &trace, std::uint64_t &observations)
{
    std::string out;
    {
        Trace::Scope span(trace, "roofline", "analysis");
        for (const auto &p : profiles) {
            const analysis::Roofline roof(p.config);
            for (const auto &k : p.kernels) {
                const auto point = roof.makePoint(
                    k.name, k.metrics.instIntensity, k.metrics.gips);
                out += analysis::intensityClassName(point.intensityClass);
                out += analysis::boundClassName(point.boundClass);
            }
            out += '\n';
        }
    }
    std::vector<core::KernelObservation> obs;
    analysis::MixedData data;
    {
        Trace::Scope span(trace, "observations", "core.harness");
        obs = core::dominantKernelObservations(profiles, 0.70);
        data = core::buildMixedData(obs, gpu::DeviceConfig{});
    }
    observations += obs.size();
    analysis::FamdResult famd;
    std::size_t keep = 0;
    {
        Trace::Scope span(trace, "famd", "analysis");
        famd = analysis::famd(data, 10);
        keep = analysis::componentsForVariance(famd, 0.90);
    }
    out += "keep " + std::to_string(keep) + "\n";
    {
        Trace::Scope span(trace, "ward", "analysis");
        analysis::Matrix coords(famd.coordinates.rows(), keep);
        for (std::size_t i = 0; i < coords.rows(); ++i)
            for (std::size_t j = 0; j < keep; ++j)
                coords(i, j) = famd.coordinates(i, j);
        for (int label :
             analysis::cutTree(analysis::wardLinkage(coords), 6))
            out += std::to_string(label) + " ";
        out += '\n';
    }
    {
        Trace::Scope span(trace, "pearson", "analysis");
        analysis::Matrix samples(obs.size(),
                                 gpu::KernelMetrics::kNumColumns);
        for (std::size_t i = 0; i < obs.size(); ++i) {
            const auto row = obs[i].metrics.toVector();
            for (std::size_t j = 0; j < row.size(); ++j)
                samples(i, j) = row[j];
        }
        const auto corr = analysis::correlationMatrix(samples);
        for (std::size_t i = 0; i < corr.rows(); ++i)
            for (std::size_t j = 0; j < corr.cols(); ++j)
                out += analysis::correlationStrengthName(
                    analysis::classifyCorrelation(corr(i, j)))[0];
        out += '\n';
    }
    return out;
}

class CactusSmall final : public ClosedLoop
{
  public:
    CactusSmall(const RunOptions &o, Trace &)
        : cachePath_(o.workDir + "/small-cache.ndjson")
    {
        infos_ = lookup(o.smoke ? kSmokeSet : kSmallSet);
        opts_.scale = core::Scale::Small;
        opts_.config = experimentConfig(kHostThreads);
    }

    OpResult
    cold(Trace &trace) override
    {
        OpResult op;
        std::vector<core::BenchmarkProfile> profiles;
        std::vector<std::string> bodies;
        std::string figures;
        op.ms = timeMs([&] {
            for (const auto &info : infos_) {
                Profiled r = profileOne(info.name, core::Scale::Small,
                                        opts_.config, trace, times_);
                bodies.push_back(std::move(r.body));
                profiles.push_back(std::move(r.profile));
            }
            figures = figureAnalyses(profiles, trace, observations_);
        });
        op.attempted = op.results = infos_.size();
        // The result digest covers the figures' outcome too.
        core::ResultCache cache(4096);
        for (std::size_t i = 0; i < infos_.size(); ++i)
            cache.insert(core::sweepTaskId(infos_[i].name, "small",
                                           opts_.config),
                         bodies[i]);
        cache.saveNdjson(cachePath_);
        op.digest = digestOfSorted(bodies);
        figures_ = digestOfSorted({figures});
        return op;
    }

    OpResult
    warm(Trace &trace) override
    {
        OpResult op;
        core::CampaignResult r;
        op.ms = timeMs([&] {
            core::ResultCache cache(4096);
            {
                Trace::Scope span(trace, "cache_load", "core.serve");
                cache.loadNdjson(cachePath_);
            }
            core::CampaignOptions w = opts_;
            w.cache = &cache;
            Trace::Scope span(trace, "runCampaign", "core.campaign");
            r = core::runCampaign(infos_, w);
        });
        settleCampaign(op, r, core::RunStatus::Cached,
                       "cactus-small warm");
        return op;
    }

    Metrics
    layers(Trace &trace) override
    {
        Metrics m = probeLayers(namesOf(infos_), core::Scale::Small,
                                opts_.config, trace);
        m["analysis.observations"] = {static_cast<double>(observations_),
                                      "count"};
        return m;
    }

    /** Digest of the last cold op's figure outcomes. */
    const std::string &figures() const { return figures_; }

  private:
    const std::string cachePath_;
    std::vector<core::BenchmarkInfo> infos_;
    core::CampaignOptions opts_;
    LayerTimes times_;
    std::uint64_t observations_ = 0;
    std::string figures_;
};

class SweepL1 final : public ClosedLoop
{
  public:
    SweepL1(const RunOptions &o, Trace &trace)
        : spans_(trace), dir_(fs::path(o.workDir) / "sweep")
    {
        goldens_ = core::GoldenTable::load(o.goldensPath);
        const auto infos = o.smoke ? lookup(kSmokeSet)
                                   : registryExcept(kSweepExcluded);
        names_ = namesOf(infos);
        axes_.push_back(core::parseSweepAxis(kSweepAxis));
        // Benchmark-major, first axis slowest: cactus_run's task order.
        const auto points =
            core::expandSweep(experimentConfig(kHostThreads), axes_);
        for (const auto &info : infos)
            for (const auto &point : points)
                tasks_.push_back({info, point.config, point.label});
        opts_.scale = core::Scale::Tiny;
        opts_.verifyOutputs = true;
        opts_.goldens = &goldens_;
        if (o.trace) {
            gpu::DeviceConfig hooked;
            spans_.install(opts_, hooked);
            for (auto &task : tasks_)
                task.config.onLaunchBoundary = hooked.onLaunchBoundary;
        }
    }

    OpResult
    cold(Trace &trace) override
    {
        fs::remove_all(dir_);
        fs::create_directories(dir_);
        OpResult op;
        core::CampaignResult r;
        core::MergeResult mr;
        op.ms = timeMs([&] {
            // One worker, so there is no lease to steal; stealing off
            // also leaves the launch-boundary hook to the benchmark.
            std::optional<core::CoordinationLog> coordination;
            {
                Trace::Scope span(trace, "open_log", "core.coord");
                coordination.emplace(path("log.jsonl"), "bench-worker",
                                     core::CoordinationLog::Options{});
            }
            core::ResultCache cache(4096);
            core::CampaignOptions round = opts_;
            round.cache = &cache;
            round.coordination = &*coordination;
            {
                Trace::Scope span(trace, "runSweep", "core.campaign");
                r = core::runSweep(tasks_, round);
            }
            {
                Trace::Scope span(trace, "cache_save", "core.serve");
                cache.saveNdjson(path("cache.ndjson"));
            }
            Trace::Scope span(trace, "merge", "core.sweep");
            mr = core::mergeCheckpoints({path("log.jsonl")},
                                        path("merged.jsonl"));
        });
        spans_.reset();
        settleCampaign(op, r, core::RunStatus::OK, "sweep-l1");
        if (!mr.clean() || mr.tasks != tasks_.size())
            op.problems.push_back(
                "sweep-l1: " + std::to_string(mr.tasks) + " merged, " +
                std::to_string(mr.corruptTasks.size()) + " corrupt");
        // The merged report is the sweep's answer.
        op.digest = digestOfSorted({readFile(path("merged.jsonl"))});
        goldensOk_ += op.results;
        tasks_run_ += r.entries.size();
        coord_ = core::CoordinationLog::inspect(path("log.jsonl"));
        logBytes_ = fs::file_size(path("log.jsonl"));
        mergedBytes_ = fs::file_size(path("merged.jsonl"));
        return op;
    }

    OpResult
    warm(Trace &trace) override
    {
        fs::remove(path("warm-ck.jsonl"));
        OpResult op;
        core::CampaignResult r;
        op.ms = timeMs([&] {
            core::ResultCache cache(4096);
            {
                Trace::Scope span(trace, "cache_load", "core.serve");
                cache.loadNdjson(path("cache.ndjson"));
            }
            core::CampaignOptions w = opts_;
            w.cache = &cache;
            w.checkpointPath = path("warm-ck.jsonl");
            {
                Trace::Scope span(trace, "runSweep", "core.campaign");
                r = core::runSweep(tasks_, w);
            }
            {
                Trace::Scope span(trace, "merge", "core.sweep");
                core::mergeCheckpoints({path("warm-ck.jsonl")},
                                       path("warm-merged.jsonl"));
            }
            Trace::Scope span(trace, "report", "core.sweep");
            core::sensitivityReport(names_, "tiny",
                                    experimentConfig(kHostThreads), axes_,
                                    path("warm-merged.jsonl"));
        });
        spans_.reset();
        settleCampaign(op, r, core::RunStatus::Cached, "sweep-l1 warm");
        // Byte-identical to the cold merge, so the digests agree.
        op.digest = digestOfSorted({readFile(path("warm-merged.jsonl"))});
        cached_ += op.results;
        tasks_run_ += r.entries.size();
        return op;
    }

    Metrics
    layers(Trace &trace) override
    {
        Metrics m = probeLayers(names_, core::Scale::Tiny,
                                experimentConfig(kHostThreads), trace);
        m["core.campaign.tasks"] = {static_cast<double>(tasks_run_),
                                    "count"};
        m["core.campaign.cached"] = {static_cast<double>(cached_),
                                     "count"};
        m["core.verify.goldens_ok"] = {static_cast<double>(goldensOk_),
                                       "count"};
        m["core.sweep.merged_bytes"] = {static_cast<double>(mergedBytes_),
                                        "B"};
        m["core.coord.records"] = {
            static_cast<double>(coord_.leases + coord_.dones +
                                coord_.beats + coord_.releases),
            "count"};
        m["core.coord.log_bytes"] = {static_cast<double>(logBytes_), "B"};
        return m;
    }

  private:
    std::string path(const char *name) const
    {
        return (dir_ / name).string();
    }

    TaskSpans spans_;
    const fs::path dir_;
    core::GoldenTable goldens_;
    std::vector<std::string> names_;
    std::vector<core::SweepAxis> axes_;
    std::vector<core::CampaignTask> tasks_;
    core::CampaignOptions opts_;
    std::uint64_t goldensOk_ = 0;
    std::uint64_t tasks_run_ = 0;
    std::uint64_t cached_ = 0;
    core::CoordinationLog::Stats coord_;
    std::uintmax_t logBytes_ = 0;
    std::uintmax_t mergedBytes_ = 0;
};

std::unique_ptr<ClosedLoop>
makeClosedLoop(const RunOptions &o, Trace &trace)
{
    fs::create_directories(o.workDir);
    if (o.workload == "suite-tiny")
        return std::make_unique<SuiteTiny>(o, trace);
    if (o.workload == "cactus-small")
        return std::make_unique<CactusSmall>(o, trace);
    if (o.workload == "sweep-l1")
        return std::make_unique<SweepL1>(o, trace);
    throw ConfigError("unknown workload '" + o.workload + "'");
}

/** Fold one op into the run: counts, problems, and the rule that every
 *  op of a run yields the same result digest. */
void
absorb(RunResult &res, const OpResult &op)
{
    res.attempted += op.attempted;
    res.failed += op.failed;
    for (const auto &p : op.problems)
        res.fail(p);
    if (res.digest.empty())
        res.digest = op.digest;
    else if (op.digest != res.digest)
        res.fail("result digest " + op.digest +
                 " differs from an earlier operation's " + res.digest);
}

/** A child's report: "op MS RESULTS ATTEMPTED FAILED RSS_MB DIGEST
 *  EXTRA" and one "problem TEXT" line per failed check. */
struct ChildReport
{
    OpResult op;
    double rssMb = 0;
    std::string extra; ///< A further digest (cactus-small: figures).
};

ChildReport
runChild(const RunOptions &o)
{
    std::vector<std::string> args = {"--op",   "--workload",
                                     o.workload, "--seed",
                                     std::to_string(o.seed), "--work-dir",
                                     o.workDir};
    if (o.smoke)
        args.push_back("--smoke");
    std::istringstream out(runSelf(args));
    ChildReport c;
    bool reported = false;
    for (std::string line; std::getline(out, line);) {
        std::istringstream fields(line);
        std::string kind;
        fields >> kind;
        if (kind == "op") {
            fields >> c.op.ms >> c.op.results >> c.op.attempted >>
                c.op.failed >> c.rssMb >> c.op.digest >> c.extra;
            reported = !fields.fail();
            if (c.extra == "-")
                c.extra.clear();
        } else if (kind == "problem") {
            c.op.problems.push_back(line.substr(8));
        }
    }
    if (!reported)
        throw ConfigError(o.workload + ": a child reported no operation");
    return c;
}

/**
 * An untraced closed-loop run: cold operations in fresh processes for
 * the measured phase, each followed by the speed reference.
 */
RunResult
runClosedLoop(const RunOptions &o)
{
    RunResult res;
    std::vector<double> cold_ms, rss_mb;
    std::size_t results = 0;
    std::string extra;
    std::string log = o.workload + " ops (ms at nominal speed):";
    SpeedReference ref(kHostThreads);
    const auto t0 = Clock::now();
    do {
        const ChildReport c = runChild(o);
        cold_ms.push_back(c.op.ms * ref.mark());
        rss_mb.push_back(c.rssMb);
        results += c.op.results;
        absorb(res, c.op);
        if (extra.empty())
            extra = c.extra;
        else if (c.extra != extra)
            res.fail("figure outcome " + c.extra + " differs from " +
                     extra);
        log += " " + std::to_string(cold_ms.back());
    } while (secondsSince(t0) < o.seconds);
    std::fprintf(stderr, "%s\n", log.c_str());

    double total_s = 0;
    for (double ms : cold_ms)
        total_s += ms / 1e3;
    res.metrics["op_p50_ms"] = {median(cold_ms), "ms"};
    res.metrics["op_tail_ms"] = {tailValue(cold_ms), "ms"};
    res.metrics["results_per_s"] = {static_cast<double>(results) / total_s,
                                    "1/s"};
    res.metrics["peak_rss_mb"] = {median(rss_mb), "MB"};
    if (!extra.empty())
        res.digest = digestOfSorted({res.digest, extra});
    return res;
}

/**
 * A traced closed-loop run, in-process: cold operations alternate
 * untraced and traced (at least one of each), scaled by the speed
 * reference, then warm operations likewise, then the per-layer counts
 * and the layer probe.
 */
RunResult
runClosedLoopTraced(const RunOptions &o, Trace &trace)
{
    RunResult res;
    auto w = makeClosedLoop(o, trace);
    std::vector<double> plain_ms, traced_ms;
    SpeedReference ref(kHostThreads);
    const auto t0 = Clock::now();
    for (std::size_t k = 0; k < 2 || secondsSince(t0) < o.seconds; ++k) {
        const bool rec = k % 2 == 1;
        trace.setRecording(rec);
        double ms = 0;
        {
            Trace::Scope op(trace, "op", "bench");
            const OpResult r = w->cold(trace);
            ms = r.ms;
            absorb(res, r);
        }
        trace.setRecording(false);
        (rec ? traced_ms : plain_ms).push_back(ms * ref.mark());
    }
    std::vector<double> warm_ms;
    for (int k = 0; k < (o.smoke ? 2 : 20); ++k) {
        const bool rec = k % 2 == 1;
        trace.setRecording(rec);
        Trace::Scope op(trace, "warm", "bench");
        const OpResult r = w->warm(trace);
        if (!rec)
            warm_ms.push_back(r.ms);
        absorb(res, r);
    }
    trace.setRecording(false);
    const double factor = ref.mark();
    res.metrics["core.campaign.warm_ms"] = {median(warm_ms) * factor, "ms"};
    traceMetrics(res, trace, plain_ms, traced_ms);
    merge(res.metrics, w->layers(trace));
    if (const auto *small = dynamic_cast<const CactusSmall *>(w.get()))
        res.digest = digestOfSorted({res.digest, small->figures()});
    return res;
}

// ---------------------------------------------------------------------------
// serve-zipf

/** One blocking NDJSON connection to the in-process server. */
class Connection
{
  public:
    explicit Connection(int port)
    {
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(static_cast<std::uint16_t>(port));
        ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
        if (fd_ < 0 ||
            ::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                      sizeof addr) != 0)
            throw ConfigError("cannot connect to the server on port " +
                              std::to_string(port));
    }

    ~Connection()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }

    Connection(const Connection &) = delete;
    Connection &operator=(const Connection &) = delete;

    /** Send one request line and read its response line; false on a
     *  transport error or after 60 s without an answer. */
    bool
    call(const std::string &line, std::string &response)
    {
        const std::string out = line + "\n";
        for (std::size_t sent = 0; sent < out.size();) {
            const ssize_t n = ::send(fd_, out.data() + sent,
                                     out.size() - sent, MSG_NOSIGNAL);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                return false;
            sent += static_cast<std::size_t>(n);
        }
        for (;;) {
            const std::size_t nl = buffer_.find('\n');
            if (nl != std::string::npos) {
                response = buffer_.substr(0, nl);
                buffer_.erase(0, nl + 1);
                return true;
            }
            pollfd pfd{fd_, POLLIN, 0};
            const int rc = ::poll(&pfd, 1, 60 * 1000);
            if (rc < 0 && errno == EINTR)
                continue;
            if (rc <= 0)
                return false;
            char chunk[8192];
            const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                return false;
            buffer_.append(chunk, static_cast<std::size_t>(n));
        }
    }

  private:
    int fd_ = -1;
    std::string buffer_;
};

/** The serve key space: 8 cheap benchmarks x 32 L2 sizes at Tiny. */
struct ServeItem
{
    std::string bench;
    std::string line;
};

std::vector<ServeItem>
serveItems(bool smoke)
{
    const auto &benches = smoke ? kSmokeSet : kServeSet;
    const int sizes = smoke ? 4 : 32;
    std::vector<ServeItem> items;
    for (int s = 0; s < sizes; ++s)
        for (const auto &b : benches)
            items.push_back(
                {b, "{\"bench\":\"" + b + "\",\"scale\":\"tiny\","
                    "\"l2_kb\":" + std::to_string(256 + 128 * s) + "}"});
    return items;
}

enum class Source
{
    Error,
    Computed,
    Cache,
    Coalesced
};

struct Sample
{
    double latencyMs = 0; ///< From the scheduled send time.
    double lateMs = 0;    ///< How late the generator sent it.
    Source source = Source::Error;
};

/** Byte-identity oracle: every answer for a key must equal the first. */
struct Oracle
{
    std::mutex mutex;
    std::map<std::size_t, std::string> first;
    std::uint64_t mismatches = 0;

    void
    check(std::size_t item, const std::string &body)
    {
        std::lock_guard<std::mutex> lock(mutex);
        const auto [it, fresh] = first.emplace(item, body);
        if (!fresh && it->second != body)
            ++mismatches;
    }
};

/** The "result" payload of a response: the bytes the cache stores. */
bool
resultBody(const std::string &response, std::string &body)
{
    const std::size_t at = response.find("\"result\":");
    if (at == std::string::npos || response.back() != '}')
        return false;
    body = response.substr(at + 9, response.size() - (at + 9) - 1);
    return true;
}

Sample
issue(Connection &conn, const ServeItem &item, std::size_t index,
      Oracle &oracle)
{
    Sample s;
    std::string response, source, body;
    if (conn.call(item.line, response) &&
        response.find("\"status\":\"ok\"") != std::string::npos &&
        jsonFindText(response, "source", source) &&
        resultBody(response, body)) {
        oracle.check(index, body);
        s.source = source == "computed" ? Source::Computed
            : source == "cache"         ? Source::Cache
                                        : Source::Coalesced;
    }
    return s;
}

/**
 * Open-loop traffic: Poisson arrivals at @p rate for @p seconds, keys
 * drawn Zipf from @p rng, sent through a pool of connections. A request
 * waits for a free connection like any queued arrival, and its latency
 * runs from its scheduled send time.
 */
std::vector<Sample>
openLoop(std::vector<std::unique_ptr<Connection>> &conns,
         const std::vector<ServeItem> &items, const ZipfSampler &zipf,
         Rng &rng, double rate, double seconds, Oracle &oracle,
         Trace &trace)
{
    std::vector<double> at;
    std::vector<std::size_t> pick;
    for (double t = -std::log(1.0 - rng.uniform()) / rate; t < seconds;
         t += -std::log(1.0 - rng.uniform()) / rate) {
        at.push_back(t);
        pick.push_back(zipf.sample(rng));
    }
    std::vector<Sample> samples(at.size());
    std::atomic<std::size_t> next{0};
    const auto start = Clock::now();
    std::vector<std::thread> threads;
    for (auto &conn : conns) {
        threads.emplace_back([&, c = conn.get()] {
            // Wake on time: the default 50 us timer slack would show
            // up in every latency as generator lateness.
            ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
            for (std::size_t k; (k = next.fetch_add(1)) < at.size();) {
                const auto due = start +
                    std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(at[k]));
                std::this_thread::sleep_until(due);
                const auto sent = Clock::now();
                Sample s = issue(*c, items[pick[k]], pick[k], oracle);
                const auto done = Clock::now();
                trace.add("request", "core.serve", 0, k + 1, sent, done);
                s.latencyMs = secondsBetween(due, done) * 1e3;
                s.lateMs = secondsBetween(due, sent) * 1e3;
                samples[k] = s;
            }
        });
    }
    for (auto &t : threads)
        t.join();
    return samples;
}

/** Closed-loop saturation: each connection sends its next request as
 *  soon as the last one is answered. Returns answers per second. */
double
closedLoop(std::vector<std::unique_ptr<Connection>> &conns,
           const std::vector<ServeItem> &items, const ZipfSampler &zipf,
           std::uint64_t seed, double seconds, Oracle &oracle,
           RunResult &res)
{
    std::atomic<std::uint64_t> answered{0}, errors{0};
    const auto start = Clock::now();
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < conns.size(); ++c) {
        threads.emplace_back([&, c] {
            Rng rng(seed * 1000003 + c);
            while (secondsSince(start) < seconds) {
                const std::size_t i = zipf.sample(rng);
                if (issue(*conns[c], items[i], i, oracle).source ==
                    Source::Error)
                    ++errors;
                else
                    ++answered;
            }
        });
    }
    for (auto &t : threads)
        t.join();
    const double wall = secondsSince(start);
    res.attempted += answered + errors;
    res.failed += errors;
    return static_cast<double>(answered) / wall;
}

std::vector<std::unique_ptr<Connection>>
connect(int port)
{
    std::vector<std::unique_ptr<Connection>> conns;
    for (int c = 0; c < kServeConnections; ++c) {
        conns.push_back(std::make_unique<Connection>(port));
        std::string pong;
        if (!conns.back()->call("{\"cmd\":\"ping\"}", pong) ||
            pong.find("\"pong\":true") == std::string::npos)
            throw ConfigError("the server did not answer ping");
    }
    return conns;
}

core::ServeOptions
serveOptions()
{
    // Shipped cactus_serve defaults, except a cache smaller than the
    // key space, so hits and evicting misses mix.
    core::ServeOptions opts;
    opts.cacheCapacity = 64;
    return opts;
}

/**
 * Ask for every key once, through all connections: every answer must
 * be byte-identical to every earlier answer for its key and carry its
 * benchmark's golden output digest. Returns the bodies.
 */
std::vector<std::string>
verifyKeys(std::vector<std::unique_ptr<Connection>> &conns,
           const std::vector<ServeItem> &items, Oracle &oracle,
           const core::GoldenTable &goldens, RunResult &res)
{
    std::vector<std::string> bodies(items.size());
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < conns.size(); ++c) {
        threads.emplace_back([&, c] {
            for (std::size_t i = c; i < items.size(); i += conns.size()) {
                std::string response;
                if (conns[c]->call(items[i].line, response))
                    resultBody(response, bodies[i]);
            }
        });
    }
    for (auto &t : threads)
        t.join();
    for (std::size_t i = 0; i < items.size(); ++i) {
        std::string digest;
        double elements = 0;
        if (!jsonFindText(bodies[i], "output_digest", digest) ||
            !jsonFindNumber(bodies[i], "output_elements", elements)) {
            res.fail("serve-zipf: no answer for " + items[i].line);
            continue;
        }
        oracle.check(i, bodies[i]);
        const auto golden = goldens.find(items[i].bench, "tiny");
        if (!golden || golden->hex() != digest ||
            golden->elements != static_cast<std::uint64_t>(elements))
            res.fail("serve-zipf: " + items[i].bench +
                     " output digest " + digest + " is not its golden");
    }
    if (oracle.mismatches > 0)
        res.fail("serve-zipf: " + std::to_string(oracle.mismatches) +
                 " answers differ from an earlier answer for their key");
    return bodies;
}

RunResult
runServeZipf(const RunOptions &o, Trace &trace)
{
    RunResult res;
    const auto items = serveItems(o.smoke);
    const ZipfSampler zipf(items.size(), 0.99);
    const core::GoldenTable goldens =
        core::GoldenTable::load(o.goldensPath);
    Rng rng(o.seed);
    constexpr double kRate = 200;

    core::Server server(serveOptions());
    server.start();
    auto conns = connect(server.port());
    Oracle oracle;

    // Fill the cache before timing.
    openLoop(conns, items, zipf, rng, kRate, 0.15 * o.seconds, oracle,
             trace);

    // The measured fixed-rate phase, with health() sampled every 50 ms.
    // It runs in kServeParts parts, and each part's latencies are scaled
    // by the speed reference timed on either side of it, as the closed
    // loops scale each operation. The load pauses while the reference
    // runs, and so does the sampling.
    std::atomic<bool> sampling{false}, done{false};
    int queue_max = 0;
    std::vector<double> inflight;
    std::thread sampler([&] {
        while (!done.load()) {
            if (sampling.load()) {
                const auto h = server.health();
                queue_max = std::max(queue_max, h.queued);
                inflight.push_back(h.inflight);
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
        }
    });
    SpeedReference ref(kServeConnections);
    const auto before = server.stats();
    std::vector<Sample> samples;
    std::vector<double> plain_ms, traced_ms;
    for (int part = 0; part < kServeParts; ++part) {
        // Traced runs alternate untraced and traced parts: the tracing
        // overhead, measured on misses, whose latency is steadier.
        const bool rec = o.trace && part % 2 == 1;
        trace.setRecording(rec);
        sampling = true;
        auto batch = openLoop(conns, items, zipf, rng, kRate,
                              0.6 * o.seconds / kServeParts, oracle, trace);
        sampling = false;
        trace.setRecording(false);
        const double factor = ref.mark();
        for (auto &s : batch) {
            s.latencyMs *= factor;
            s.lateMs *= factor;
            if (s.source == Source::Computed)
                (rec ? traced_ms : plain_ms).push_back(s.latencyMs);
        }
        samples.insert(samples.end(), batch.begin(), batch.end());
    }
    const auto after = server.stats();
    done = true;
    sampler.join();

    std::vector<double> all_ms, hit_ms, miss_ms, late_ms;
    std::uint64_t useful = 0;
    for (const auto &s : samples) {
        ++res.attempted;
        if (s.source == Source::Error) {
            ++res.failed;
            continue;
        }
        all_ms.push_back(s.latencyMs);
        late_ms.push_back(s.lateMs);
        if (s.source == Source::Computed) {
            miss_ms.push_back(s.latencyMs);
        } else {
            ++useful;
            if (s.source == Source::Cache)
                hit_ms.push_back(s.latencyMs);
        }
    }

    const double capacity = closedLoop(conns, items, zipf, o.seed,
                                       0.25 * o.seconds, oracle, res) /
        ref.mark();
    const auto bodies = verifyKeys(conns, items, oracle, goldens, res);
    res.digest = digestOfSorted(bodies);
    if (res.failed > 0)
        res.fail("serve-zipf: " + std::to_string(res.failed) +
                 " requests failed");
    conns.clear();
    server.stop();

    const double hit_pct = all_ms.empty()
        ? 0.0
        : 100.0 * static_cast<double>(useful) /
            static_cast<double>(all_ms.size());
    std::fprintf(stderr,
                 "serve-zipf: %zu timed requests, %.1f%% useful hits, "
                 "hit p50 %.4f ms, miss p50 %.3f ms, miss p99 %.3f ms, "
                 "generator late p99 %.3f ms (nominal speed)\n",
                 all_ms.size(), hit_pct, median(hit_ms), median(miss_ms),
                 percentile(miss_ms, 0.99), percentile(late_ms, 0.99));

    if (!o.trace) {
        // The median request is a hit: a few socket wake-ups, whose
        // time on a shared virtual host drifts by tens of percent with
        // nothing the benchmark can see or scale. The median miss is
        // the cold operation the closed loops report.
        res.metrics["op_p50_ms"] = {median(miss_ms), "ms"};
        res.metrics["op_tail_ms"] = {tailValue(all_ms), "ms"};
        res.metrics["results_per_s"] = {capacity, "1/s"};
        res.metrics["peak_rss_mb"] = {peakRssMb(), "MB"};
        return res;
    }
    res.metrics["core.serve.hit_p50_ms"] = {median(hit_ms), "ms"};
    res.metrics["core.serve.gen_late_p99_ms"] = {percentile(late_ms, 0.99),
                                                 "ms"};
    traceMetrics(res, trace, plain_ms, traced_ms);
    const auto delta = [&](std::uint64_t a, std::uint64_t b) {
        return Metric{static_cast<double>(b - a), "count"};
    };
    res.metrics["core.serve.hit_pct"] = {hit_pct, "%"};
    res.metrics["core.serve.computed"] =
        delta(before.computed, after.computed);
    res.metrics["core.serve.coalesced"] =
        delta(before.coalesced, after.coalesced);
    res.metrics["core.serve.evictions"] =
        delta(before.evictions, after.evictions);
    res.metrics["core.serve.overloaded"] =
        delta(before.overloaded, after.overloaded);
    res.metrics["core.serve.queue_max"] = {static_cast<double>(queue_max),
                                           "count"};
    double inflight_sum = 0;
    for (double v : inflight)
        inflight_sum += v;
    res.metrics["core.serve.inflight_mean"] = {
        inflight.empty() ? 0.0
                         : inflight_sum /
                               static_cast<double>(inflight.size()),
        "count"};
    res.metrics["core.verify.goldens_ok"] = {
        static_cast<double>(bodies.size()), "count"};
    merge(res.metrics,
          probeLayers(o.smoke ? kSmokeSet : kServeSet, core::Scale::Tiny,
                      experimentConfig(serveOptions().defaultHostThreads),
                      trace));
    return res;
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "suite-tiny", "cactus-small", "sweep-l1", "serve-zipf"};
    return names;
}

RunResult
runWorkload(const RunOptions &opts, Trace &trace)
{
    if (opts.workload == "serve-zipf")
        return runServeZipf(opts, trace);
    return opts.trace ? runClosedLoopTraced(opts, trace)
                      : runClosedLoop(opts);
}

void
setupWorkload(const RunOptions &opts)
{
    if (opts.workload == "serve-zipf") {
        core::Server server(serveOptions());
        server.start();
        connect(server.port());
        server.stop();
        return;
    }
    Trace trace;
    makeClosedLoop(opts, trace);
}

std::string
childOp(const RunOptions &opts)
{
    Trace trace;
    auto w = makeClosedLoop(opts, trace);
    const OpResult op = w->cold(trace);
    const auto *small = dynamic_cast<const CactusSmall *>(w.get());
    std::ostringstream out;
    out.precision(17);
    out << "op " << op.ms << " " << op.results << " " << op.attempted
        << " " << op.failed << " " << peakRssMb() << " " << op.digest
        << " " << (small ? small->figures() : "-") << "\n";
    for (const auto &p : op.problems)
        out << "problem " << p << "\n";
    return out.str();
}

} // namespace cactus::bench
