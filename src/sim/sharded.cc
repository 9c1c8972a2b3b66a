#include "sim/sharded.hh"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <optional>
#include <system_error>

#include "sim/checkpoint.hh"
#include "sim/ooo_core.hh"
#include "sim/trace.hh"
#include "support/check.hh"
#include "support/hash.hh"
#include "support/thread_pool.hh"
#include "uarch/warm_state.hh"

namespace yasim {

namespace {

/**
 * Identity of one shard's warmed-uarch state: everything that shapes
 * the post-warming tag arrays, TLB entries, and predictor tables. The
 * warm stream is architectural, so timing-only parameters (latencies,
 * core sizing, bus width) are deliberately excluded — a latency sweep
 * over one machine shares one set of warm summaries.
 */
// yasim-lint: key(warm) covers CacheConfig(uarch/cache.hh)
// yasim-lint: key(warm) covers BranchPredictorConfig(uarch/branch_predictor.hh)
// yasim-lint: key(warm) covers MemoryConfig(uarch/memory_hierarchy.hh)
// yasim-lint: key(warm) covers SimConfig(sim/config.hh)
std::string
warmSummaryKey(const Program &program, const ShardSlice &slice,
               const SimConfig &config)
{
    Hasher h;
    h.u32(kWarmStateFormatVersion);
    h.u32(kCheckpointFormatVersion);

    h.u64(program.size());
    const Instruction *code = program.code();
    for (uint64_t i = 0; i < program.size(); ++i) {
        const Instruction &inst = code[i];
        h.u32(static_cast<uint32_t>(inst.op));
        h.u32(static_cast<uint32_t>(inst.rd));
        h.u32(static_cast<uint32_t>(inst.rs1));
        h.u32(static_cast<uint32_t>(inst.rs2));
        h.u64(static_cast<uint64_t>(inst.imm));
    }

    h.u64(slice.warmStart);
    h.u64(slice.begin);

    auto cache = [&h](const CacheConfig &c) {
        h.u32(c.sizeKb).u32(c.assoc).u32(c.blockBytes);
        h.u32(static_cast<uint32_t>(c.replacement));
    };
    cache(config.mem.l1i);
    cache(config.mem.l1d);
    cache(config.mem.l2);
    h.u32(config.mem.itlbEntries).u32(config.mem.dtlbEntries);
    h.b(config.mem.nextLinePrefetch);

    h.u32(static_cast<uint32_t>(config.bp.kind));
    h.u32(config.bp.bhtEntries).u32(config.bp.globalHistoryBits);
    h.u32(config.bp.btbEntries).u32(config.bp.btbAssoc);
    h.b(config.bp.speculativeUpdate);

    return h.hex();
}

std::string
warmSummaryPath(const std::string &dir, const std::string &key)
{
    return dir + "/warm-" + key + ".ckpt";
}

/** Per-shard prepared warm state, resolved serially before the fan-out. */
struct ShardPrep
{
    std::string key;
    Checkpoint summary = Checkpoint::atPosition(0);
    bool haveSummary = false;
};

/**
 * Build a fresh core and apply @p prep's warmed-uarch summary if one
 * loaded. A summary that fails structural validation leaves the tables
 * partially mutated, so the core is rebuilt and the caller warms from
 * the stream instead. @p restored reports whether the summary took.
 */
void
makeCore(std::optional<OooCore> &core, const SimConfig &config,
         const ShardPrep &prep, bool &restored)
{
    core.emplace(config);
    restored = prep.haveSummary &&
               prep.summary.restoreUarch(core->memHierarchy(),
                                         core->predictor(), prep.key);
    if (prep.haveSummary && !restored)
        core.emplace(config);
}

/**
 * Serially resolve each warmed shard's summary key and try to load a
 * persisted summary for it. Runs before the parallel fan-out so the
 * workers touch the warm directory only to publish new summaries.
 */
std::vector<ShardPrep>
prepareShards(const Program &program, const std::vector<ShardSlice> &plan,
              const SimConfig &config, const ShardOptions &opts)
{
    std::vector<ShardPrep> prep(plan.size());
    if (!opts.warmDir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(opts.warmDir, ec);
    }
    for (size_t k = 1; k < plan.size(); ++k) {
        prep[k].key = warmSummaryKey(program, plan[k], config);
        if (opts.warmDir.empty())
            continue;
        Checkpoint loaded = Checkpoint::atPosition(0);
        if (Checkpoint::loadFile(warmSummaryPath(opts.warmDir, prep[k].key),
                                 loaded) &&
            loaded.instruction() == plan[k].begin &&
            loaded.hasUarch() && loaded.uarchKey() == prep[k].key) {
            prep[k].summary = loaded;
            prep[k].haveSummary = true;
        }
    }
    return prep;
}

/** Plan-based modeled cost, independent of warm-summary hits. */
void
chargePlan(const std::vector<ShardSlice> &plan, ShardedRunResult &result)
{
    for (const ShardSlice &s : plan) {
        result.detailedInsts += s.end - s.begin;
        result.warmedInsts += s.begin - s.warmStart;
    }
}

/** Instructions functionally warmed between cancellation polls. */
constexpr uint64_t kWarmCancelChunk = 1 << 20;

/**
 * Functionally warm @p n instructions from @p src in bounded chunks,
 * polling @p cancel between chunks (warming a full prefix can be the
 * longest phase of a shard). Completed chunks accumulate into
 * @p warmed_done for honest partial-cost accounting. False = cancelled
 * mid-warm.
 */
bool
warmChunked(TraceReplayer &src, uint64_t n, OooCore &core,
            const CancelToken &cancel, std::atomic<uint64_t> &warmed_done)
{
    while (n > 0) {
        if (cancel.cancelled())
            return false;
        uint64_t step = std::min(n, kWarmCancelChunk);
        src.fastForwardWarm(step, &core.memHierarchy(),
                            &core.predictor());
        warmed_done.fetch_add(step, std::memory_order_relaxed);
        n -= step;
    }
    return true;
}

/**
 * The post-fan-out cancellation gate: a cancelled sharded run throws
 * instead of stitching, carrying the raw partial progress so the
 * technique layer can convert it to work units.
 */
void
refuseStitchIfCancelled(const CancelToken &cancel,
                        const std::atomic<uint64_t> &detailed_done,
                        const std::atomic<uint64_t> &warmed_done)
{
    if (!cancel.cancelled())
        return;
    CancelledError err;
    err.cause = cancel.cause();
    err.detailedInsts = detailed_done.load(std::memory_order_relaxed);
    err.warmedInsts = warmed_done.load(std::memory_order_relaxed);
    throw err;
}

} // namespace

const char *
stitchModeName(StitchMode mode)
{
    switch (mode) {
      case StitchMode::Drain:
        return "drain";
    }
    return "unknown";
}

std::vector<ShardSlice>
planShards(uint64_t length, uint32_t shards, uint64_t warmup)
{
    if (shards == 0)
        shards = 1;
    const uint64_t spacing = ExecTrace::ladderSpacingFor(length);

    // Interior boundaries at the ladder rung nearest each ideal split;
    // rungs can collide for short runs, in which case shards merge.
    std::vector<uint64_t> bounds;
    bounds.push_back(0);
    for (uint32_t k = 1; k < shards; ++k) {
        uint64_t ideal = length * k / shards;
        uint64_t rung = (ideal + spacing / 2) / spacing * spacing;
        if (rung == 0 || rung >= length)
            continue;
        if (rung != bounds.back())
            bounds.push_back(rung);
    }
    bounds.push_back(length);

    std::vector<ShardSlice> plan;
    plan.reserve(bounds.size() - 1);
    for (size_t k = 0; k + 1 < bounds.size(); ++k) {
        ShardSlice s;
        s.begin = bounds[k];
        s.end = bounds[k + 1];
        // Shard 0 starts cold like the sequential run; later shards
        // warm their lead-in, the full prefix when unbounded.
        if (s.begin == 0 || warmup == 0 || warmup >= s.begin)
            s.warmStart = 0;
        else
            s.warmStart = s.begin - warmup;
        plan.push_back(s);
    }
    return plan;
}

ShardedRunResult
runShardedReference(const std::shared_ptr<const ExecTrace> &trace,
                    const SimConfig &config, const ShardOptions &opts,
                    const CancelToken &cancel)
{
    YASIM_CHECK(trace != nullptr, "sharded replay requires a trace");
    const uint64_t length = trace->length();
    const std::vector<ShardSlice> plan =
        planShards(length, opts.exact ? 1 : opts.shards, opts.warmupInsts);
    std::vector<ShardPrep> prep =
        prepareShards(trace->program(), plan, config, opts);

    ShardedRunResult result;
    result.perShard.resize(plan.size());
    chargePlan(plan, result);

    std::atomic<uint32_t> restores{0};
    std::atomic<uint32_t> saves{0};
    std::atomic<uint64_t> detailedDone{0};
    std::atomic<uint64_t> warmedDone{0};

    globalPool().parallelFor(plan.size(), [&](size_t k) {
        const ShardSlice &slice = plan[k];
        TraceReplayer replayer(trace);
        std::optional<OooCore> coreSlot;
        bool warmed = false;
        makeCore(coreSlot, config, prep[k], warmed);
        OooCore &core = *coreSlot;
        if (warmed) {
            restores.fetch_add(1, std::memory_order_relaxed);
            // Restored lead-ins charge like executed ones so partial
            // cost never depends on warm-dir state (same rule as
            // chargePlan).
            warmedDone.fetch_add(slice.begin - slice.warmStart,
                                 std::memory_order_relaxed);
        }

        if (!warmed && slice.begin > 0) {
            replayer.seek(slice.warmStart);
            if (!warmChunked(replayer, slice.begin - slice.warmStart,
                             core, cancel, warmedDone))
                return; // cancelled mid-warm: publish no summary
            if (!opts.warmDir.empty()) {
                Checkpoint summary = Checkpoint::atPosition(slice.begin);
                summary.attachUarch(core.memHierarchy(), core.predictor(),
                                    prep[k].key);
                if (summary.saveFile(
                        warmSummaryPath(opts.warmDir, prep[k].key)))
                    saves.fetch_add(1, std::memory_order_relaxed);
            }
        }

        if (cancel.cancelled())
            return;
        replayer.seek(slice.begin);
        uint64_t done = 0;
        result.perShard[k] = core.runMeasured(
            replayer, slice.end - slice.begin, nullptr, &done, cancel);
        detailedDone.fetch_add(done, std::memory_order_relaxed);
    }, cancel);

    refuseStitchIfCancelled(cancel, detailedDone, warmedDone);
    result.stats = stitchStats(result.perShard);
    result.warmRestores = restores.load();
    result.warmSaves = saves.load();
    return result;
}

} // namespace yasim
