#include "workloads.hh"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <iostream>
#include <memory>
#include <numeric>
#include <sstream>

#include "core/pb_characterization.hh"
#include "engine/result_io.hh"
#include "support/hash.hh"
#include "support/table.hh"
#include "support/thread_pool.hh"
#include "techniques/full_reference.hh"
#include "techniques/permutations.hh"
#include "techniques/smarts.hh"

namespace perfbench {

using namespace yasim;
namespace fs = std::filesystem;

const std::vector<std::string> &
families()
{
    static const std::vector<std::string> names = {
        "reference", "runz",   "ffrun",  "ffwurun",
        "simpoint",  "smarts", "reduced",
    };
    return names;
}

namespace {

constexpr int kSetupRepeats = 3;
constexpr int kWarmPasses = 20;

/** The benchmark's family name for a Technique::name(). */
std::string
familyOf(const Technique &technique)
{
    const std::string name = technique.name();
    if (name == "reference")
        return "reference";
    if (name == "Run Z")
        return "runz";
    if (name == "FF+Run")
        return "ffrun";
    if (name == "FF+WU+Run")
        return "ffwurun";
    if (name == "SimPoint")
        return "simpoint";
    if (name == "SMARTS")
        return "smarts";
    return "reduced";
}

/**
 * The fig1 grid without SMARTS: every PB design row crossed with the
 * reference and the other representative permutations, in prefetch
 * order (configuration outer, technique inner). SMARTS took 61% of the
 * call time inside this grid; it has a workload of its own.
 */
void
makePbGrid(Workload &w)
{
    w.configs = pbDesignConfigs(w.design);
    for (const std::string &bench : w.benches) {
        std::vector<TechniquePtr> list = {std::make_shared<FullReference>()};
        for (const TechniquePtr &t : representativePermutations(bench)) {
            if (t->name() != "SMARTS")
                list.push_back(t);
        }
        w.techniques.push_back(std::move(list));
    }
    for (size_t b = 0; b < w.benches.size(); ++b) {
        for (const SimConfig &config : w.configs) {
            for (const TechniquePtr &t : w.techniques[b])
                w.calls.push_back({t.get(), b, &config, familyOf(*t)});
        }
    }
}

/**
 * SMARTS requests U in {100, 1000, 10000}, W = 2U, on the Table-3
 * configurations plus two PB rows from either half of the design.
 */
void
makeSmartsRequests(Workload &w)
{
    w.configs = architecturalConfigs();
    const std::vector<SimConfig> rows = pbDesignConfigs(w.design);
    for (size_t r : {0, 22})
        w.configs.push_back(rows[r]);
    for (size_t b = 0; b < w.benches.size(); ++b) {
        std::vector<TechniquePtr> list;
        for (uint64_t u : {100ULL, 1000ULL, 10000ULL})
            list.push_back(std::make_shared<Smarts>(u, 2 * u));
        w.techniques.push_back(std::move(list));
    }
    for (size_t b = 0; b < w.benches.size(); ++b) {
        for (const SimConfig &config : w.configs) {
            for (const TechniquePtr &t : w.techniques[b])
                w.calls.push_back({t.get(), b, &config, "smarts"});
        }
    }
}

/**
 * Fold every field of @p r into @p h: SimStats, CPI, metrics, BBEF/BBV
 * and work units. Independent of the cache file format, so a format
 * version bump does not move the pinned digests.
 */
void
digestResult(Hasher &h, const TechniqueResult &r)
{
    const SimStats &s = r.detailed;
    h.str(r.technique).str(r.permutation).d(r.cpi);
    for (uint64_t v : {s.instructions, s.cycles, s.condBranches,
                       s.condMispredicts, s.l1iAccesses, s.l1iMisses,
                       s.l1dAccesses, s.l1dMisses, s.l2Accesses, s.l2Misses,
                       s.trivialOps, s.prefetchesIssued, s.memStallCycles})
        h.u64(v);
    for (const std::vector<double> *list : {&r.metrics, &r.bbef, &r.bbv}) {
        h.u64(list->size());
        for (double v : *list)
            h.d(v);
    }
    h.d(r.workUnits).u64(r.detailedInsts);
}

/** The result as the engine's disk cache stores it. */
std::string
serialize(const TechniqueResult &result)
{
    std::ostringstream os;
    writeResult(os, "perfbench", result);
    return os.str();
}

/** Cold or warm pass over every call of @p w. */
struct Pass
{
    std::vector<TechniqueResult> results;
    std::vector<double> callMs;
    uint64_t failed = 0;
};

Pass
runPass(ExperimentEngine &engine, const std::vector<TechniqueContext> &ctxs,
        const Workload &w, Tracer &tracer, const char *name)
{
    Pass pass;
    const size_t n = w.calls.size();
    pass.results.resize(n);
    pass.callMs.resize(n);
    std::atomic<uint64_t> failed{0};
    ScopedSpan batch(tracer, name);
    auto one = [&](size_t k) {
        const size_t i = w.order[k];
        const Call &c = w.calls[i];
        ScopedSpan span(tracer, "engine.run", batch.id(), i + 1, c.family);
        Clock::time_point start = Clock::now();
        try {
            pass.results[i] = engine.run(*c.technique, ctxs[c.bench],
                                         *c.config);
        } catch (const std::exception &e) {
            std::cerr << "perfbench: " << w.name << " call " << i
                      << " failed: " << e.what() << "\n";
            failed.fetch_add(1);
        }
        pass.callMs[i] = secondsSince(start) * 1e3;
    };
    if (w.pooled) {
        globalPool().parallelFor(n, one);
    } else {
        for (size_t i = 0; i < n; ++i)
            one(i);
    }
    pass.failed = failed.load();
    return pass;
}

/**
 * The serial table assembly a driver does after its grid: PB rank
 * distances per technique (fig1), or the SMARTS CPI / cost table
 * (ablate_smarts_uw). Returns the rendered output, which joins the
 * digest.
 */
std::string
assemble(ExperimentEngine &engine, const std::vector<TechniqueContext> &ctxs,
         const Workload &w, const Pass &cold)
{
    std::ostringstream out;
    if (w.pbAssembly) {
        for (size_t b = 0; b < w.benches.size(); ++b) {
            const std::vector<TechniquePtr> &list = w.techniques[b];
            PbOutcome ref = runPbDesign(engine, *list[0], ctxs[b], w.design);
            for (size_t t = 1; t < list.size(); ++t) {
                PbOutcome o = runPbDesign(engine, *list[t], ctxs[b],
                                          w.design);
                out << w.benches[b] << " " << o.technique << " "
                    << o.permutation << " "
                    << Table::num(pbDistance(o, ref), 6) << "\n";
            }
        }
        return out.str();
    }
    Table table("SMARTS CPI and cost across U (W = 2U)");
    table.setHeader({"benchmark", "config", "U", "CPI", "work units"});
    for (size_t i = 0; i < w.calls.size(); ++i) {
        const TechniqueResult &r = cold.results[i];
        table.addRow({w.benches[w.calls[i].bench], w.calls[i].config->name,
                      r.permutation, Table::num(r.cpi, 6),
                      Table::num(r.workUnits, 0)});
    }
    table.print(out);
    return out.str();
}

void
cacheDirSize(const std::string &dir, double &files, double &mb)
{
    files = 0.0;
    mb = 0.0;
    std::error_code ec;
    for (fs::recursive_directory_iterator it(dir, ec), end;
         !ec && it != end; it.increment(ec)) {
        if (it->is_regular_file(ec)) {
            files += 1.0;
            mb += double(it->file_size(ec)) / (1024.0 * 1024.0);
        }
    }
}

/** Set-up as a user pays it: one engine, one context per benchmark. */
std::unique_ptr<ExperimentEngine>
setUp(const Workload &w, const SuiteConfig &suite, const std::string &dir,
      std::vector<TechniqueContext> &ctxs, Tracer &tracer)
{
    ScopedSpan setup(tracer, "setup");
    EngineOptions opts;
    opts.cacheDir = dir;
    std::unique_ptr<ExperimentEngine> engine;
    {
        ScopedSpan span(tracer, "engine.construct", setup.id());
        engine = std::make_unique<ExperimentEngine>(opts);
    }
    ctxs.clear();
    for (const std::string &bench : w.benches) {
        ScopedSpan span(tracer, "engine.context", setup.id());
        ctxs.push_back(engine->context(bench, suite));
    }
    return engine;
}

} // namespace

bool
makeWorkload(const std::string &name, Workload &w)
{
    w.name = name;
    w.benches = {"gzip", "mcf"};
    if (name == "pb_grid") {
        makePbGrid(w);
    } else if (name == "smarts_serial") {
        w.pooled = false;
        w.pbAssembly = false;
        makeSmartsRequests(w);
    } else if (name == "cache_dir") {
        // pb_grid's calls against a cache directory: the difference
        // between the two is the cost of persisting.
        w.diskCache = true;
        makePbGrid(w);
    } else {
        return false;
    }
    w.order.resize(w.calls.size());
    std::iota(w.order.begin(), w.order.end(), size_t(0));
    return true;
}

void
EngineTotals::add(const EngineCounters &c)
{
    memoHits += c.memoHits;
    memoMisses += c.memoMisses;
    inflightJoins += c.inflightJoins;
    runsExecuted += c.runsExecuted;
    diskWrites += c.diskWrites;
    diskHits += c.diskHits;
    workUnits += std::llround(c.workUnitsComputed);
}

RepResult
runRep(const Workload &w, const SuiteConfig &suite,
       const std::string &cache_dir, Tracer &tracer, bool probe_memo)
{
    RepResult r;
    const std::string dir = w.diskCache ? cache_dir : "";
    auto fresh_dir = [&] {
        if (!dir.empty()) {
            fs::remove_all(dir);
            fs::create_directories(dir);
        }
    };

    resetPeakRss();

    // Set-up, several times: each pays the full cost (a disk-cache
    // workload starts from an empty directory); the last one is kept.
    HostUsage u0 = HostUsage::now();
    std::vector<TechniqueContext> ctxs;
    std::unique_ptr<ExperimentEngine> engine;
    for (int i = 0; i < kSetupRepeats; ++i) {
        engine.reset();
        fresh_dir();
        Clock::time_point start = Clock::now();
        engine = setUp(w, suite, dir, ctxs, tracer);
        r.setupS.push_back(secondsSince(start));
    }
    HostUsage u1 = HostUsage::now();
    r.setupUse = u1 - u0;
    r.setupUse.scale(1.0 / kSetupRepeats);

    // Timed phase: every call, then the serial assembly.
    Clock::time_point start = Clock::now();
    Pass cold = runPass(*engine, ctxs, w, tracer, "cold");
    Clock::time_point assembly_start = Clock::now();
    std::string assembled;
    {
        ScopedSpan span(tracer, "core.assemble");
        assembled = assemble(*engine, ctxs, w, cold);
    }
    r.assembleMs = secondsSince(assembly_start) * 1e3;
    r.runS = secondsSince(start);
    HostUsage u2 = HostUsage::now();
    r.runUse = u2 - u1;
    r.callMs = cold.callMs;
    r.attempted += w.calls.size();
    r.failed += cold.failed;

    std::vector<std::string> bytes;
    bytes.reserve(cold.results.size());
    Hasher digest;
    for (const TechniqueResult &result : cold.results) {
        bytes.push_back(serialize(result));
        digestResult(digest, result);
        r.detailedInsts += double(result.detailedInsts);
    }
    digest.str(assembled);
    r.digest = digest.hex();

    // Warm passes: the same calls served from cache — by a fresh
    // engine on the cache directory, or by the cold engine's memo.
    for (int pass = 0; pass < kWarmPasses; ++pass) {
        Clock::time_point warm_start = Clock::now();
        std::unique_ptr<ExperimentEngine> warm_engine;
        std::vector<TechniqueContext> warm_ctxs;
        Pass warm;
        if (w.diskCache) {
            warm_engine = setUp(w, suite, dir, warm_ctxs, tracer);
            warm = runPass(*warm_engine, warm_ctxs, w, tracer, "warm");
        } else {
            warm = runPass(*engine, ctxs, w, tracer, "warm");
        }
        r.warmS.push_back(secondsSince(warm_start));
        r.attempted += w.calls.size();
        r.failed += warm.failed;
        for (size_t i = 0; i < bytes.size(); ++i) {
            if (serialize(warm.results[i]) != bytes[i])
                r.warmMatches = false;
        }
        if (warm_engine)
            r.engine.add(warm_engine->counters());
    }
    r.warmUse = HostUsage::now() - u2;
    r.warmUse.scale(1.0 / kWarmPasses);

    r.peakRssMb = peakRssMb();
    r.engine.add(engine->counters());
    if (!dir.empty())
        cacheDirSize(dir, r.cacheFiles, r.cacheMb);

    std::vector<std::string> by_size = bytes;
    std::sort(by_size.begin(), by_size.end(),
              [](const std::string &a, const std::string &b) {
                  return a.size() < b.size();
              });
    r.samplePayload = by_size[by_size.size() / 2];

    if (probe_memo) {
        ScopedSpan batch(tracer, "probe.memo_hits");
        for (size_t i = 0; i < w.calls.size(); ++i) {
            const Call &c = w.calls[i];
            ScopedSpan span(tracer, "engine.run.memo", batch.id(), i + 1,
                            c.family);
            Clock::time_point t = Clock::now();
            engine->run(*c.technique, ctxs[c.bench], *c.config);
            r.memoHitUs.push_back(secondsSince(t) * 1e6);
        }
    }

    return r;
}

std::vector<double>
diskHitProbe(const Workload &w, const SuiteConfig &suite,
             const std::string &dir, size_t count, Tracer &tracer)
{
    fs::remove_all(dir);
    fs::create_directories(dir);
    count = std::min(count, w.calls.size());
    {
        std::vector<TechniqueContext> ctxs;
        std::unique_ptr<ExperimentEngine> engine =
            setUp(w, suite, dir, ctxs, tracer);
        for (size_t i = 0; i < count; ++i) {
            const Call &c = w.calls[i];
            engine->run(*c.technique, ctxs[c.bench], *c.config);
        }
    }
    std::vector<double> us;
    std::vector<TechniqueContext> ctxs;
    std::unique_ptr<ExperimentEngine> engine =
        setUp(w, suite, dir, ctxs, tracer);
    ScopedSpan batch(tracer, "probe.disk_hits");
    for (size_t i = 0; i < count; ++i) {
        const Call &c = w.calls[i];
        ScopedSpan span(tracer, "engine.run.disk", batch.id(), i + 1,
                        c.family);
        Clock::time_point t = Clock::now();
        engine->run(*c.technique, ctxs[c.bench], *c.config);
        us.push_back(secondsSince(t) * 1e6);
    }
    engine.reset();
    fs::remove_all(dir);
    return us;
}

} // namespace perfbench
