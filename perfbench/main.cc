/**
 * @file
 * yasim_perfbench: one workload of the yasim benchmark.
 *
 *   yasim_perfbench --workload pb_grid|smarts_serial|cache_dir
 *                   --seed N --seconds S --trace 0|1
 *                   [--data-seed N] [--out-dir DIR] [--digests FILE]
 *
 * --seed draws the order the workload's requests are sent in, afresh
 * for each repetition; --data-seed is the suite data seed. After one
 * untimed repetition the workload repeats, with fresh engines each
 * time, until S seconds have passed (at least kMinReps times), and the
 * metrics are medians over
 * the repetitions. With --trace 0 it prints the end-to-end metrics.
 * With --trace 1 every other repetition records spans, the per-layer
 * probes run afterwards, and it prints the per-layer metrics and writes
 * the spans to DIR as Chrome trace-event JSON. The last line of stdout
 * is one JSON object: {"correct", "attempted", "failed", "metrics"}.
 *
 * Correct means the results did not change: every repetition's result
 * digest agrees, every warm pass equals the cold pass byte for byte,
 * the deterministic engine counters repeat, no call fails, and at a
 * data seed pinned in FILE the digest equals the pinned one. Anything
 * else exits 1, naming the workload.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <random>
#include <set>
#include <sstream>
#include <thread>
#include <fcntl.h>
#include <malloc.h>
#include <unistd.h>

#include "harness.hh"
#include "probes.hh"
#include "support/logging.hh"
#include "support/thread_pool.hh"
#include "workloads.hh"

using namespace perfbench;

namespace {

constexpr size_t kMinReps = 3;
/** In a traced run, reps alternate traced/untraced: 2 of each. */
constexpr size_t kMinTracedReps = 4;
constexpr unsigned kMaxWorkers = 4;
constexpr size_t kDiskProbeCalls = 8;

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    /** Suite data seed; the drivers' default. */
    uint64_t dataSeed = 12345;
    double seconds = 10.0;
    bool trace = false;
    std::string outDir = ".";
    std::string digests;
};

[[noreturn]] void
usage(const char *why)
{
    std::cerr << "yasim_perfbench: " << why
              << "\nusage: yasim_perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--data-seed N] "
                 "[--out-dir DIR] [--digests FILE]\n";
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                usage("missing value");
            return argv[++i];
        };
        if (std::strcmp(argv[i], "--workload") == 0)
            a.workload = next();
        else if (std::strcmp(argv[i], "--seed") == 0)
            a.seed = std::strtoull(next(), nullptr, 10);
        else if (std::strcmp(argv[i], "--data-seed") == 0)
            a.dataSeed = std::strtoull(next(), nullptr, 10);
        else if (std::strcmp(argv[i], "--seconds") == 0)
            a.seconds = std::strtod(next(), nullptr);
        else if (std::strcmp(argv[i], "--trace") == 0)
            a.trace = std::strcmp(next(), "0") != 0;
        else if (std::strcmp(argv[i], "--out-dir") == 0)
            a.outDir = next();
        else if (std::strcmp(argv[i], "--digests") == 0)
            a.digests = next();
        else
            usage("unknown argument");
    }
    if (a.workload.empty())
        usage("--workload is required");
    return a;
}

/** The pinned digest of (@p workload, @p seed), or "" when none. */
std::string
pinnedDigest(const std::string &path, const std::string &workload,
             uint64_t seed)
{
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string name, digest;
        uint64_t pinned_seed = 0;
        if (fields >> name >> pinned_seed >> digest && name == workload &&
            pinned_seed == seed)
            return digest;
    }
    return "";
}

/**
 * Flush the file system holding @p dir and wait for it, so the journal
 * commits and discards that deleting a run's cache directories queues
 * are paid here, untimed, not by the fsyncs of whatever runs next.
 */
void
settleFileSystem(const std::string &dir)
{
    int fd = open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd >= 0) {
        syncfs(fd);
        close(fd);
    }
}

template <typename Fn>
std::vector<double>
collect(const std::vector<RepResult> &reps, Fn &&fn)
{
    std::vector<double> out;
    for (const RepResult &r : reps)
        out.push_back(fn(r));
    return out;
}

/** Per-family roll-up of the traced cold passes' engine.run spans. */
void
rollUpFamilies(const std::vector<Span> &spans, size_t traced_reps,
               std::vector<Metric> &out)
{
    std::map<uint64_t, const Span *> cold_batches;
    for (const Span &s : spans) {
        if (s.name == "cold")
            cold_batches[s.id] = &s;
    }
    std::map<std::string, std::vector<double>> ms;
    for (const Span &s : spans) {
        if (s.name == "engine.run" && cold_batches.count(s.parent))
            ms[s.family].push_back(s.ms());
    }
    const double reps = double(std::max<size_t>(traced_reps, 1));
    for (const std::string &family : families()) {
        const std::vector<double> &d = ms[family];
        double busy = 0.0;
        for (double v : d)
            busy += v;
        const std::string base = "techniques." + family;
        out.push_back({base + ".calls", double(d.size()) / reps, "count",
                       d.size()});
        out.push_back({base + ".busy_s", busy / 1e3 / reps, "s", d.size()});
        out.push_back({base + ".ms_p50", median(d), "ms", d.size()});
    }
}

void
printResult(bool correct, uint64_t attempted, uint64_t failed,
            const std::vector<Metric> &metrics)
{
    for (const Metric &m : metrics) {
        std::printf("# %-34s %16.6f %-8s n=%zu\n", m.name.c_str(), m.value,
                    m.unit.c_str(), m.samples);
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false", (unsigned long long)attempted,
                (unsigned long long)failed);
    for (size_t i = 0; i < metrics.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    Workload w;
    if (!makeWorkload(args.workload, w))
        usage("unknown workload");

    // glibc raises its mmap threshold adaptively the first time a large
    // block is freed, and when that happens depends on thread timing:
    // identical smarts_serial runs took 0.26M or 1.8M minor faults per
    // repetition and 2.6 or 3.7 s. Pinning the threshold at glibc's own
    // default (128 KiB) turns the adaptation off, so every run takes
    // the same allocation path: each OooCore's multi-MB windows are
    // mapped fresh and faulted in, the churn ROADMAP item 3(b) targets.
    mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    yasim::setInformEnabled(false);
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    const unsigned workers = std::min(kMaxWorkers, hw);
    yasim::setParallelWorkers(workers);

    yasim::SuiteConfig suite;
    suite.referenceInstructions = kRefInsts;
    suite.seed = args.dataSeed;

    const std::string scratch = args.outDir + "/scratch-" + w.name + "-" +
                                std::to_string(getpid());
    Tracer tracer;
    std::vector<RepResult> reps;
    std::vector<double> traced_run_s, plain_run_s;
    const size_t min_reps = args.trace ? kMinTracedReps : kMinReps;
    // Each repetition sends the requests in a fresh order drawn from
    // --seed, so one run averages over many orders.
    std::mt19937_64 order_rng(args.seed);
    std::shuffle(w.order.begin(), w.order.end(), order_rng);
    auto cache_dir = [&] {
        return scratch + "/cache-" + std::to_string(reps.size());
    };
    // One untimed repetition first: the process's first pass pays for
    // growing the heap and faulting in code and tables, which no later
    // repetition sees again, and the file system settles whatever
    // earlier processes left it to do.
    settleFileSystem(args.outDir);
    const RepResult warmup =
        runRep(w, suite, scratch + "/cache-warmup", tracer, false);
    Clock::time_point start = Clock::now();
    while (reps.size() < min_reps || secondsSince(start) < args.seconds) {
        std::shuffle(w.order.begin(), w.order.end(), order_rng);
        const bool traced = args.trace && reps.size() % 2 == 0;
        tracer.setEnabled(traced);
        reps.push_back(runRep(w, suite, cache_dir(), tracer,
                              args.trace && reps.empty()));
        const RepResult &r = reps.back();
        (traced ? traced_run_s : plain_run_s).push_back(r.runS);
        std::printf("# rep %zu%s: setup_s %.4f run_s %.4f warm_s %.5f "
                    "sys_s %.3f minor_faults %.0f\n",
                    reps.size(), traced ? " (traced)" : "", median(r.setupS),
                    r.runS, median(r.warmS), r.runUse.sysS,
                    r.runUse.minorFaults);
    }

    // Correctness: results, warm pass and deterministic counters repeat.
    std::set<std::string> problems;
    uint64_t attempted = warmup.attempted, failed = warmup.failed;
    if (warmup.digest != reps[0].digest || !warmup.warmMatches)
        problems.insert("the untimed first repetition's results differ");
    for (const RepResult &r : reps) {
        attempted += r.attempted;
        failed += r.failed;
        if (r.digest != reps[0].digest)
            problems.insert("result digest differs between repetitions");
        if (!r.warmMatches)
            problems.insert("warm results differ from the cold pass");
        if (r.engine != reps[0].engine)
            problems.insert("engine counters differ between repetitions");
    }
    if (failed)
        problems.insert(std::to_string(failed) + " calls failed");
    const std::string pinned =
        args.digests.empty()
            ? ""
            : pinnedDigest(args.digests, w.name, args.dataSeed);
    if (!pinned.empty() && pinned != reps[0].digest)
        problems.insert("result digest " + reps[0].digest +
                        " differs from the pinned " + pinned);
    std::printf("# digest %s data-seed %llu: %s%s\n", w.name.c_str(),
                (unsigned long long)args.dataSeed, reps[0].digest.c_str(),
                pinned.empty() ? " (not pinned)" : " (pinned)");

    std::vector<Metric> metrics;
    const size_t n = reps.size();
    auto per_rep = [&](auto fn) { return median(collect(reps, fn)); };
    if (!args.trace) {
        std::vector<double> calls, setups, warms;
        for (const RepResult &r : reps) {
            calls.insert(calls.end(), r.callMs.begin(), r.callMs.end());
            setups.insert(setups.end(), r.setupS.begin(), r.setupS.end());
            warms.insert(warms.end(), r.warmS.begin(), r.warmS.end());
        }
        metrics = {
            {"setup_s", median(setups), "s", setups.size()},
            {"run_s", per_rep([](auto &r) { return r.runS; }), "s", n},
            {"warm_s", median(warms), "s", warms.size()},
            {"job_ms_p50", quantile(calls, 0.5), "ms", calls.size()},
            {"job_ms_p90", quantile(calls, 0.9), "ms", calls.size()},
            {"detailed_minst_per_s",
             per_rep([](auto &r) { return r.detailedInsts / r.runS / 1e6; }),
             "Minst/s", n},
            {"peak_rss_mb", per_rep([](auto &r) { return r.peakRssMb; }), "MB",
             n},
        };
    } else {
        const RepResult &first = reps[0];
        const EngineTotals &e = first.engine;
        metrics = {
            {"engine.memo_hits", double(e.memoHits), "count", 1},
            {"engine.memo_misses", double(e.memoMisses), "count", 1},
            {"engine.inflight_joins", double(e.inflightJoins), "count", 1},
            {"engine.runs_executed", double(e.runsExecuted), "count", 1},
            {"engine.disk_writes", double(e.diskWrites), "count", 1},
            {"engine.disk_hits", double(e.diskHits), "count", 1},
            {"engine.work_units", double(e.workUnits), "count", 1},
            {"engine.hit_us_p50", median(first.memoHitUs), "us",
             first.memoHitUs.size()},
        };
        tracer.setEnabled(true);
        const std::vector<double> disk_us = diskHitProbe(
            w, suite, scratch + "/disk-probe", kDiskProbeCalls, tracer);
        metrics.push_back(
            {"engine.disk_hit_us_p50", median(disk_us), "us", disk_us.size()});
        metrics.push_back({"pool.busy_frac", per_rep([&](auto &r) {
                               double busy_s = 0.0;
                               for (double ms : r.callMs)
                                   busy_s += ms / 1e3;
                               return busy_s / (r.runS * workers);
                           }),
                           "ratio", n});
        metrics.push_back({"core.assemble_ms",
                           per_rep([](auto &r) { return r.assembleMs; }),
                           "ms", n});
        metrics.push_back({"cache_dir.files", first.cacheFiles, "count", 1});
        metrics.push_back({"cache_dir.mb", first.cacheMb, "MB", 1});
        const std::pair<const char *, HostUsage RepResult::*> phases[] = {
            {"setup", &RepResult::setupUse},
            {"run", &RepResult::runUse},
            {"warm", &RepResult::warmUse},
        };
        for (const auto &[phase, field] : phases) {
            const std::string base = std::string("host.") + phase;
            metrics.push_back(
                {base + ".user_s",
                 per_rep([&](auto &r) { return (r.*field).userS; }), "s", n});
            metrics.push_back(
                {base + ".sys_s",
                 per_rep([&](auto &r) { return (r.*field).sysS; }), "s", n});
            metrics.push_back(
                {base + ".minor_faults",
                 per_rep([&](auto &r) { return (r.*field).minorFaults; }),
                 "count", n});
        }
        metrics.push_back({"trace.overhead_frac",
                           median(traced_run_s) / median(plain_run_s) - 1.0,
                           "ratio", n});
        rollUpFamilies(tracer.spans(), traced_run_s.size(), metrics);
        try {
            for (Metric &m : runProbes(w, suite, first.samplePayload,
                                       scratch + "/probes", tracer))
                metrics.push_back(std::move(m));
        } catch (const std::exception &e) {
            problems.insert(std::string("layer probe: ") + e.what());
        }

        const std::string trace_path = args.outDir + "/trace-" + w.name +
                                       "-seed" + std::to_string(args.seed) +
                                       ".json";
        if (!tracer.writeChromeTrace(trace_path))
            problems.insert("cannot write " + trace_path);
        else
            std::printf("# spans written to %s\n", trace_path.c_str());
    }
    std::filesystem::remove_all(scratch);
    settleFileSystem(args.outDir);

    const bool correct = problems.empty();
    for (const std::string &p : problems)
        std::cerr << "perfbench: " << w.name << ": " << p << "\n";
    printResult(correct, attempted, failed, metrics);
    return correct ? 0 : 1;
}
