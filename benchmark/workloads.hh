/**
 * @file
 * The four workloads of the repository benchmark. Each runs one thing
 * users run, through the same library calls the tools make, on fresh
 * devices with empty modelled caches:
 *
 *  - suite-tiny:   the verified tiny suite (cactus_run --suite all
 *                  --tiny --verify); warm: the same campaign answered
 *                  from the persisted result cache;
 *  - cactus-small: a Cactus subset profiled at Small scale plus the
 *                  paper's figure analyses; warm: the same benchmarks
 *                  answered from the persisted result cache;
 *  - sweep-l1:     a 4-point l1_kb sweep with trace sharing, a
 *                  one-worker coordination log, a result cache and a
 *                  merge; warm: the re-sweep answered from the cache,
 *                  checkpointed, merged and reported;
 *  - serve-zipf:   an in-process cactus_serve under Zipf-skewed open-
 *                  loop traffic, then a closed-loop capacity phase.
 *
 * The first three are closed loops of one caller over a fixed input:
 * the benchmarks in the tools' order. An untraced run performs each
 * cold operation in a fresh process, as a user's tool invocation does;
 * a traced run performs them in-process so spans can be recorded, and
 * adds the warm operations. The seed drives the serve arrivals and key
 * draws; result digests never depend on it.
 */

#ifndef CACTUS_BENCHMARK_WORKLOADS_HH
#define CACTUS_BENCHMARK_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "support.hh"

namespace cactus::bench {

/** How one workload run is sized and where it may write. */
struct RunOptions
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 1;  ///< Length of the measured phase.
    bool trace = false;  ///< Record spans; report per-layer metrics.
    bool smoke = false;  ///< 2 benchmarks, 1 pass: the self-test size.
    std::string workDir; ///< Scratch files (caches, sweep logs).
    std::string goldensPath;
};

/** Outcome of one workload run. */
struct RunResult
{
    bool correct = true;
    std::uint64_t attempted = 0; ///< Tasks or requests attempted.
    std::uint64_t failed = 0;    ///< FAILED/TIMEOUT/CORRUPT or errors.
    Metrics metrics;             ///< End-to-end, or per-layer if traced.
    std::string digest;          ///< Seed-independent result digest.
    std::vector<std::string> problems; ///< Failed correctness checks.

    void
    fail(std::string why)
    {
        correct = false;
        problems.push_back(std::move(why));
    }
};

/** The workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/**
 * Run one workload's measured phase and, when traced, its layer probe.
 * Metrics exclude setup_s, which cactus_bench measures around it.
 */
RunResult runWorkload(const RunOptions &opts, Trace &trace);

/** The workload's set-up alone, timed by cactus_bench from a fresh
 *  process: everything a user pays before the first operation. */
void setupWorkload(const RunOptions &opts);

/**
 * Child-process entry of an untraced closed-loop run: set up, perform
 * one cold operation, and return the report the parent parses from
 * standard output.
 */
std::string childOp(const RunOptions &opts);

} // namespace cactus::bench

#endif // CACTUS_BENCHMARK_WORKLOADS_HH
