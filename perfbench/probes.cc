#include "probes.hh"

#include <sys/resource.h>

#include <algorithm>
#include <filesystem>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "sim/functional.hh"
#include "sim/livepoint.hh"
#include "sim/ooo_core.hh"
#include "sim/trace.hh"
#include "support/artifact_io.hh"
#include "uarch/branch_predictor.hh"
#include "uarch/cache.hh"
#include "uarch/memory_hierarchy.hh"
#include "uarch/tlb.hh"
#include "workloads/suite.hh"

namespace perfbench {

using namespace yasim;
namespace fs = std::filesystem;

namespace {

/** Operations over the probe's whole timed interval. */
struct Rate
{
    double seconds = 0.0;
    double ops = 0.0;
    double hits = 0.0;

    double nsPerOp() const { return ops > 0 ? seconds * 1e9 / ops : 0.0; }
    double mPerS() const { return seconds > 0 ? ops / seconds / 1e6 : 0.0; }
};

/** Time @p fn once, adding its duration to @p rate. */
template <typename Fn>
void
timed(Rate &rate, Tracer &tracer, const char *name, Fn &&fn)
{
    ScopedSpan span(tracer, name);
    Clock::time_point start = Clock::now();
    fn();
    rate.seconds += secondsSince(start);
}

/** The streams of one recorded run, in execution order. */
struct Streams
{
    std::vector<uint64_t> instAddrs;
    std::vector<uint64_t> dataAddrs;
    std::vector<uint8_t> dataWrites;
    struct Branch
    {
        uint64_t pc;
        uint64_t target;
        bool conditional;
        bool taken;
    };
    std::vector<Branch> branches;
};

Streams
recordStreams(const std::shared_ptr<const ExecTrace> &trace)
{
    Streams s;
    TraceReplayer replay(trace);
    std::vector<ExecRecord> buf(4096);
    while (uint64_t n = replay.stepBatch(buf.data(), buf.size())) {
        for (uint64_t i = 0; i < n; ++i) {
            const ExecRecord &r = buf[i];
            s.instAddrs.push_back(Program::pcAddress(r.pc));
            if (r.inst->isLoad() || r.inst->isStore()) {
                s.dataAddrs.push_back(r.memAddr);
                s.dataWrites.push_back(r.inst->isStore());
            }
            if (r.inst->isControl()) {
                s.branches.push_back({Program::pcAddress(r.pc),
                                      Program::pcAddress(r.nextPc),
                                      r.inst->isCondBranch(), r.taken});
            }
        }
    }
    return s;
}

/** Whole passes over a stream of @p size so at least @p ops run. */
size_t
passesFor(size_t size, double ops)
{
    if (size == 0)
        return 1;
    return std::max<size_t>(1, size_t(ops / double(size)) + 1);
}

constexpr double kUarchOps = 4e6;
constexpr int kRecordRepeats = 3;
constexpr int kConstructRepeats = 20;
constexpr int kArtifactRepeats = 30;

} // namespace

std::vector<Metric>
runProbes(const Workload &w, const SuiteConfig &suite,
          const std::string &payload, const std::string &dir,
          Tracer &tracer)
{
    fs::remove_all(dir);
    fs::create_directories(dir);
    const SimConfig &cfg = w.probeConfig();

    double build_ms = 0.0, record_ms = 0.0;
    double trace_bytes = 0.0, trace_insts = 0.0;
    Rate replay, warm, detailed, construct, lp_build, lp_load;
    double construct_minflt = 0.0, lp_bytes = 0.0;
    Rate data_access, warm_inst, warm_data, dtlb, bp_update;

    for (const std::string &bench : w.benches) {
        // workloads: build the reference program.
        std::vector<double> samples;
        std::optional<yasim::Workload> built;
        for (int i = 0; i < kRecordRepeats; ++i) {
            ScopedSpan span(tracer, "probe.workloads.build");
            Clock::time_point start = Clock::now();
            built.emplace(buildWorkload(bench, InputSet::Reference, suite));
            samples.push_back(secondsSince(start) * 1e3);
        }
        build_ms += median(samples);

        // sim (trace): record, size, replay.
        samples.clear();
        std::shared_ptr<const ExecTrace> trace;
        for (int i = 0; i < kRecordRepeats; ++i) {
            ScopedSpan span(tracer, "probe.trace.record");
            Clock::time_point start = Clock::now();
            trace = ExecTrace::record(built->program);
            samples.push_back(secondsSince(start) * 1e3);
        }
        record_ms += median(samples);
        const uint64_t length = trace->length();
        {
            std::ostringstream os;
            trace->write(os, "perfbench");
            trace_bytes += double(os.str().size());
            trace_insts += double(length);
        }
        std::vector<ExecRecord> buf(4096);
        for (size_t p = passesFor(length, 8e6); p > 0; --p) {
            timed(replay, tracer, "probe.trace.replay", [&] {
                TraceReplayer r(trace);
                while (uint64_t n = r.stepBatch(buf.data(), buf.size()))
                    replay.ops += double(n);
            });
        }

        // sim (functional): warming over the live interpreter.
        for (size_t p = passesFor(length, 2e6); p > 0; --p) {
            FunctionalSim sim(built->program);
            MemoryHierarchy mem(cfg.mem);
            CombinedPredictor bp(cfg.bp);
            timed(warm, tracer, "probe.functional.warm", [&] {
                warm.ops += double(sim.fastForwardWarm(~0ULL, &mem, &bp));
            });
        }

        // sim (ooo_core): detailed replay, then bare construction.
        for (size_t p = passesFor(length, 1e6); p > 0; --p) {
            OooCore core(cfg);
            TraceReplayer r(trace);
            timed(detailed, tracer, "probe.ooo.run", [&] {
                detailed.ops += double(core.run(r, ~0ULL));
            });
        }
        struct rusage before = {}, after = {};
        getrusage(RUSAGE_SELF, &before);
        for (int i = 0; i < kConstructRepeats; ++i) {
            timed(construct, tracer, "probe.ooo.construct",
                  [&] { OooCore core(cfg); });
            construct.ops += 1.0;
        }
        getrusage(RUSAGE_SELF, &after);
        construct_minflt += double(after.ru_minflt - before.ru_minflt);

        // sim (livepoint): build a SMARTS U=1000 grid, persist, reload.
        const SamplingPlan plan = SamplingPlan::make(1000, 2000, length);
        const uint64_t n = std::clamp<uint64_t>(
            length / std::max<uint64_t>(plan.span() * 5, 1), 50, 3000);
        const std::vector<uint64_t> indices = plan.indicesFor(n);
        LivePointOptions lp_opts;
        lp_opts.dir = dir + "/livepoints-" + bench;
        {
            LivePointLibrary lib(trace, plan, cfg, lp_opts);
            timed(lp_build, tracer, "probe.livepoint.build", [&] {
                lp_build.ops += double(lib.ensure(indices));
            });
            for (uint64_t j : indices)
                lp_bytes += double(fs::file_size(lib.pointPath(j)));
        }
        {
            LivePointLibrary lib(trace, plan, cfg, lp_opts);
            timed(lp_load, tracer, "probe.livepoint.load",
                  [&] { lib.ensure(indices); });
            lp_load.ops += double(indices.size());
        }

        // uarch: the recorded streams through each structure.
        const Streams s = recordStreams(trace);
        {
            MemoryHierarchy mem(cfg.mem);
            timed(data_access, tracer, "probe.uarch.data_access", [&] {
                for (size_t p = passesFor(s.dataAddrs.size(), kUarchOps);
                     p > 0; --p) {
                    for (size_t i = 0; i < s.dataAddrs.size(); ++i)
                        mem.dataAccess(s.dataAddrs[i], s.dataWrites[i]);
                }
            });
            data_access.ops += double(mem.l1dStats().accesses);
            data_access.hits +=
                double(mem.l1dStats().accesses - mem.l1dStats().misses);
        }
        {
            // warmInst/warmData count nothing, so a bare Cache of the
            // same geometry replays the stream for the hit count.
            const size_t passes = passesFor(s.instAddrs.size(), kUarchOps);
            MemoryHierarchy mem(cfg.mem);
            timed(warm_inst, tracer, "probe.uarch.warm_inst", [&] {
                for (size_t p = passes; p > 0; --p) {
                    for (uint64_t a : s.instAddrs)
                        mem.warmInst(a);
                }
            });
            warm_inst.ops += double(passes * s.instAddrs.size());
            Cache l1i("l1i", cfg.mem.l1i);
            for (size_t p = passes; p > 0; --p) {
                for (uint64_t a : s.instAddrs)
                    warm_inst.hits += l1i.touch(a) ? 1.0 : 0.0;
            }
        }
        {
            const size_t passes = passesFor(s.dataAddrs.size(), kUarchOps);
            MemoryHierarchy mem(cfg.mem);
            timed(warm_data, tracer, "probe.uarch.warm_data", [&] {
                for (size_t p = passes; p > 0; --p) {
                    for (uint64_t a : s.dataAddrs)
                        mem.warmData(a);
                }
            });
            warm_data.ops += double(passes * s.dataAddrs.size());
            Cache l1d("l1d", cfg.mem.l1d);
            for (size_t p = passes; p > 0; --p) {
                for (uint64_t a : s.dataAddrs)
                    warm_data.hits += l1d.touch(a) ? 1.0 : 0.0;
            }
        }
        {
            Tlb tlb("dtlb", cfg.mem.dtlbEntries);
            timed(dtlb, tracer, "probe.uarch.dtlb_access", [&] {
                for (size_t p = passesFor(s.dataAddrs.size(), kUarchOps);
                     p > 0; --p) {
                    for (uint64_t a : s.dataAddrs)
                        tlb.access(a);
                }
            });
            dtlb.ops += double(tlb.stats().accesses);
            dtlb.hits += double(tlb.stats().accesses - tlb.stats().misses);
        }
        {
            CombinedPredictor bp(cfg.bp);
            const size_t passes = passesFor(s.branches.size(), kUarchOps);
            double mispredicts = 0.0;
            timed(bp_update, tracer, "probe.uarch.bp_update", [&] {
                for (size_t p = passes; p > 0; --p) {
                    for (const Streams::Branch &b : s.branches) {
                        mispredicts += bp.update(b.pc, b.conditional,
                                                 b.taken, b.target)
                                           ? 1.0
                                           : 0.0;
                    }
                }
            });
            bp_update.ops += double(passes * s.branches.size());
            bp_update.hits +=
                double(passes * s.branches.size()) - mispredicts;
        }
    }

    // support (artifact_io): framed writes and reads of result size.
    std::vector<double> write_ms, read_us;
    const std::string art_dir = dir + "/artifacts";
    fs::create_directories(art_dir);
    for (int i = 0; i < kArtifactRepeats; ++i) {
        const std::string path =
            art_dir + "/probe-" + std::to_string(i) + ".result";
        ScopedSpan span(tracer, "probe.artifact.write");
        Clock::time_point start = Clock::now();
        ArtifactWriteResult wrote =
            writeArtifact(path, "perfbench-probe", 1, payload);
        write_ms.push_back(secondsSince(start) * 1e3);
        if (!wrote.ok)
            throw std::runtime_error("artifact write failed: " + wrote.error);
    }
    for (int i = 0; i < kArtifactRepeats; ++i) {
        const std::string path =
            art_dir + "/probe-" + std::to_string(i) + ".result";
        ScopedSpan span(tracer, "probe.artifact.read");
        Clock::time_point start = Clock::now();
        ArtifactReadResult read = readArtifact(path, "perfbench-probe", 1);
        read_us.push_back(secondsSince(start) * 1e6);
        if (read.status != ArtifactStatus::Ok || read.payload != payload)
            throw std::runtime_error("artifact read-back failed: " +
                                     read.error);
    }
    fs::remove_all(dir);

    const size_t benches = w.benches.size();
    return {
        {"workloads.build_ms", build_ms, "ms", kRecordRepeats * benches},
        {"trace.record_ms", record_ms, "ms", kRecordRepeats * benches},
        {"trace.replay_minst_per_s", replay.mPerS(), "Minst/s", 1},
        {"trace.bytes_per_inst", trace_bytes / trace_insts, "B/inst", 1},
        {"functional.warm_minst_per_s", warm.mPerS(), "Minst/s", 1},
        {"ooo.detailed_minst_per_s", detailed.mPerS(), "Minst/s", 1},
        {"ooo.construct_us", construct.seconds * 1e6 / construct.ops, "us",
         size_t(construct.ops)},
        {"ooo.construct_minflt", construct_minflt / construct.ops, "count",
         size_t(construct.ops)},
        {"livepoint.build_minst_per_s", lp_build.mPerS(), "Minst/s", 1},
        {"livepoint.load_us_per_point", lp_load.seconds * 1e6 / lp_load.ops,
         "us", size_t(lp_load.ops)},
        {"livepoint.bytes_per_point", lp_bytes / lp_load.ops, "B",
         size_t(lp_load.ops)},
        {"uarch.data_access_ns", data_access.nsPerOp(), "ns",
         size_t(data_access.ops)},
        {"uarch.data_access_hits", data_access.hits, "count", 1},
        {"uarch.warm_inst_ns", warm_inst.nsPerOp(), "ns",
         size_t(warm_inst.ops)},
        {"uarch.warm_inst_hits", warm_inst.hits, "count", 1},
        {"uarch.warm_data_ns", warm_data.nsPerOp(), "ns",
         size_t(warm_data.ops)},
        {"uarch.warm_data_hits", warm_data.hits, "count", 1},
        {"uarch.dtlb_access_ns", dtlb.nsPerOp(), "ns", size_t(dtlb.ops)},
        {"uarch.dtlb_hits", dtlb.hits, "count", 1},
        {"uarch.bp_update_ns", bp_update.nsPerOp(), "ns",
         size_t(bp_update.ops)},
        {"uarch.bp_hits", bp_update.hits, "count", 1},
        {"artifact.write_ms_p50", median(write_ms), "ms", write_ms.size()},
        {"artifact.read_us_p50", median(read_us), "us", read_us.size()},
    };
}

} // namespace perfbench
