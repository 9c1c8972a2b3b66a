/**
 * @file
 * The benchmark's three workloads and one repetition of each.
 *
 * A workload is a fixed list of ExperimentEngine::run calls (benchmark
 * x technique x machine configuration) plus the way a user's driver
 * sends them: a closed batch fanned across the pool (the fig1 prefetch
 * shape) or one closed-loop client sending one request at a time (the
 * fig2 / ablate_smarts_uw / yasim-client shape). One repetition builds
 * fresh engines, so every timed call really simulates, and ends with a
 * warm pass that serves the same calls from the engine's caches.
 */

#ifndef YASIM_PERFBENCH_WORKLOADS_HH
#define YASIM_PERFBENCH_WORKLOADS_HH

#include <string>
#include <vector>

#include "engine/engine.hh"
#include "sim/config.hh"
#include "harness.hh"
#include "stats/plackett_burman.hh"
#include "techniques/technique.hh"

namespace perfbench {

/** One engine request. */
struct Call
{
    const yasim::Technique *technique = nullptr;
    /** Index into Workload::benches. */
    size_t bench = 0;
    const yasim::SimConfig *config = nullptr;
    /** Technique family (reference, runz, ..., smarts). */
    std::string family;
};

/**
 * Suite scaling shared by every workload: the dynamic length of each
 * reference input. One repetition then takes a few seconds on 4 cores.
 */
constexpr uint64_t kRefInsts = 100'000;

/** The benchmark's technique families, in report order. */
const std::vector<std::string> &families();

/** A workload definition; see file comment. */
struct Workload
{
    std::string name;
    std::vector<std::string> benches;
    std::vector<yasim::SimConfig> configs;
    /** Per benchmark; on PB grids element 0 is the full reference. */
    std::vector<std::vector<yasim::TechniquePtr>> techniques;
    std::vector<Call> calls;
    /**
     * The order requests are sent in: a permutation of the call
     * indices, reshuffled before each repetition. Results are
     * order-independent, so the digest is taken in call order.
     */
    std::vector<size_t> order;
    /** True: one closed batch on the pool. False: one serial client. */
    bool pooled = true;
    /** Cold pass writes a fresh cache directory; warm pass reads it. */
    bool diskCache = false;
    /** Assemble PB rank distances (fig1) rather than a SMARTS table. */
    bool pbAssembly = true;
    /** The fig1 design: 43 factors, no foldover (44 rows). */
    yasim::PbDesign design =
        yasim::PbDesign::forFactors(yasim::numPbFactors(), false);

    /** The configuration the per-layer probes use. */
    const yasim::SimConfig &probeConfig() const { return configs.front(); }
};

/**
 * Build workload @p name, its requests in call order; false when the
 * name is unknown.
 */
bool makeWorkload(const std::string &name, Workload &out);

/** Deterministic engine counters of one repetition. */
struct EngineTotals
{
    uint64_t memoHits = 0;
    uint64_t memoMisses = 0;
    uint64_t inflightJoins = 0;
    uint64_t runsExecuted = 0;
    uint64_t diskWrites = 0;
    uint64_t diskHits = 0;
    /** Work units computed, rounded to a whole unit. */
    long long workUnits = 0;

    void add(const yasim::EngineCounters &c);
    bool operator==(const EngineTotals &) const = default;
};

/** What one repetition measured. */
struct RepResult
{
    /** One sample per set-up (several per repetition). */
    std::vector<double> setupS;
    double runS = 0.0;
    /** One sample per warm pass (several per repetition). */
    std::vector<double> warmS;
    double assembleMs = 0.0;
    /** Cold-pass latency of each call, in call order. */
    std::vector<double> callMs;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** Digest of every cold result and the assembly, in call order. */
    std::string digest;
    /** Warm results equal the cold ones byte for byte. */
    bool warmMatches = true;
    /** Sum of detailedInsts over the cold calls. */
    double detailedInsts = 0.0;
    /** Host usage per set-up, per cold phase and per warm pass. */
    HostUsage setupUse, runUse, warmUse;
    EngineTotals engine;
    /** Peak resident set size during the repetition, in MiB. */
    double peakRssMb = 0.0;
    /** Files and MiB in the cache directory after both passes. */
    double cacheFiles = 0.0;
    double cacheMb = 0.0;
    /** A cold result serialized, of median size (artifact probe). */
    std::string samplePayload;
    /** Memo-hit latency of each call, when asked for. */
    std::vector<double> memoHitUs;
};

/**
 * One repetition: set up fresh engines and contexts (several times),
 * run the cold pass and the serial assembly, then the warm passes.
 * Disk-cache workloads use @p cache_dir, which must not exist yet. It
 * is left in place: deleting hundreds of files issues discards that
 * would stall the next repetition's fsyncs, so the caller removes all
 * repetitions' directories once timing is over.
 * @p probe_memo re-requests every call serially on the cold engine
 * afterwards and records the memo-hit latencies.
 */
RepResult runRep(const Workload &w, const yasim::SuiteConfig &suite,
                 const std::string &cache_dir, Tracer &tracer,
                 bool probe_memo);

/**
 * Disk-hit latency of the workload's first @p count calls: one engine
 * writes them to @p dir, a fresh engine reads them back (timed).
 */
std::vector<double> diskHitProbe(const Workload &w,
                                 const yasim::SuiteConfig &suite,
                                 const std::string &dir, size_t count,
                                 Tracer &tracer);

} // namespace perfbench

#endif // YASIM_PERFBENCH_WORKLOADS_HH
