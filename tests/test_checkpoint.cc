/** @file Tests for warm-state checkpoints. */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include <sstream>

#include "isa/program_builder.hh"
#include "sim/checkpoint.hh"
#include "sim/functional.hh"
#include "sim/memory.hh"
#include "sim/trace.hh"
#include "support/failpoint.hh"
#include "uarch/branch_predictor.hh"
#include "uarch/memory_hierarchy.hh"

namespace yasim {
namespace {

namespace fs = std::filesystem;

Program
loopProgram()
{
    ProgramBuilder b("cp");
    Label top = b.newLabel();
    b.movi(1, 0);
    b.movi(2, 1000);
    b.movi(5, static_cast<int64_t>(heapBase));
    b.bind(top);
    b.st(5, 1, 0);
    b.ld(6, 5, 0);
    b.add(7, 7, 6);
    b.addi(5, 5, 8);
    b.addi(1, 1, 1);
    b.blt(1, 2, top);
    b.halt();
    return b.finish();
}

/** The composite warm blob of @p mem and @p bp, for bit comparisons. */
std::string
warmBlobOf(const MemoryHierarchy &mem, const CombinedPredictor &bp)
{
    std::ostringstream os;
    mem.serializeWarmState(os);
    bp.serializeWarmState(os);
    return os.str();
}

TEST(Checkpoint, RestoreResumesIdentically)
{
    // The sharded resume: warm to a position, carry the tables in a
    // checkpoint, restore them into fresh tables over a replayer seeked
    // to that position, keep warming — the result must equal one
    // straight warming pass.
    Program p = loopProgram();
    auto trace = ExecTrace::record(p);
    MemoryConfig mcfg;
    BranchPredictorConfig bcfg;

    MemoryHierarchy straight_mem(mcfg);
    CombinedPredictor straight_bp(bcfg);
    TraceReplayer straight(trace);
    straight.fastForwardWarm(~0ULL, &straight_mem, &straight_bp);

    MemoryHierarchy first_mem(mcfg);
    CombinedPredictor first_bp(bcfg);
    TraceReplayer first(trace);
    first.fastForwardWarm(2000, &first_mem, &first_bp);
    Checkpoint cp = Checkpoint::atPosition(first.instsExecuted());
    cp.attachUarch(first_mem, first_bp, "k");
    EXPECT_EQ(cp.instruction(), 2000u);

    MemoryHierarchy resumed_mem(mcfg);
    CombinedPredictor resumed_bp(bcfg);
    ASSERT_TRUE(cp.restoreUarch(resumed_mem, resumed_bp, "k"));
    TraceReplayer resumed(trace);
    resumed.seek(cp.instruction());
    resumed.fastForwardWarm(~0ULL, &resumed_mem, &resumed_bp);

    EXPECT_EQ(resumed.instsExecuted(), straight.instsExecuted());
    EXPECT_EQ(warmBlobOf(resumed_mem, resumed_bp),
              warmBlobOf(straight_mem, straight_bp));
}

TEST(Checkpoint, CapturesHaltState)
{
    // A checkpoint at the halt position resumes a halted stream.
    Program p = loopProgram();
    auto trace = ExecTrace::record(p);
    std::stringstream ss;
    Checkpoint::atPosition(trace->length()).writeBinary(ss);
    Checkpoint back = Checkpoint::atPosition(0);
    ASSERT_TRUE(Checkpoint::readBinary(ss, back));
    TraceReplayer resumed(trace);
    resumed.seek(back.instruction());
    EXPECT_TRUE(resumed.halted());
    EXPECT_EQ(resumed.fastForward(10), 0u);
}

TEST(Checkpoint, FramedFileRoundTripRestoresIdentically)
{
    failpoint::ScopedSchedule off("");
    fs::path dir = fs::path(::testing::TempDir()) / "yasim_ckpt_file";
    fs::remove_all(dir);
    fs::create_directories(dir);
    const std::string path = (dir / "mid.ckpt").string();

    // A checkpoint with no summary is a bare position; it survives the
    // framed file too.
    ASSERT_TRUE(Checkpoint::atPosition(2000).saveFile(path));
    Checkpoint loaded = Checkpoint::atPosition(0);
    ASSERT_TRUE(Checkpoint::loadFile(path, loaded));
    EXPECT_EQ(loaded.instruction(), 2000u);
    EXPECT_FALSE(loaded.hasUarch());

    fs::remove_all(dir);
}

TEST(Checkpoint, CorruptFileIsQuarantinedAndLoadFails)
{
    failpoint::ScopedSchedule off("");
    fs::path dir = fs::path(::testing::TempDir()) / "yasim_ckpt_rot";
    fs::remove_all(dir);
    fs::create_directories(dir);
    const std::string path = (dir / "rot.ckpt").string();

    Program p = loopProgram();
    MemoryHierarchy mem(MemoryConfig{});
    CombinedPredictor bp(BranchPredictorConfig{});
    FunctionalSim source(p);
    source.fastForwardWarm(500, &mem, &bp);
    Checkpoint cp = Checkpoint::atPosition(500);
    cp.attachUarch(mem, bp, "k");
    ASSERT_TRUE(cp.saveFile(path));

    // Flip a payload byte: the frame checksum must catch it, the file
    // must move aside, and loadFile must report failure (the caller
    // regenerates).
    {
        std::ifstream in(path, std::ios::binary);
        std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
        in.close();
        bytes[bytes.size() / 2] ^= 0x01;
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << bytes;
    }
    Checkpoint loaded = Checkpoint::atPosition(0);
    EXPECT_FALSE(Checkpoint::loadFile(path, loaded));
    EXPECT_FALSE(fs::exists(path));
    EXPECT_TRUE(fs::exists(path + ".corrupt"));

    // Missing files fail quietly too (no quarantine to create).
    EXPECT_FALSE(Checkpoint::loadFile(path, loaded));

    fs::remove_all(dir);
}

TEST(Checkpoint, UarchSummaryRoundTripsThroughFile)
{
    failpoint::ScopedSchedule off("");
    fs::path dir = fs::path(::testing::TempDir()) / "yasim_ckpt_warm";
    fs::remove_all(dir);
    fs::create_directories(dir);
    const std::string path = (dir / "warm.ckpt").string();

    Program p = loopProgram();
    MemoryConfig mcfg;
    BranchPredictorConfig bcfg;
    MemoryHierarchy mem(mcfg);
    CombinedPredictor bp(bcfg);
    FunctionalSim sim(p);
    sim.fastForwardWarm(3000, &mem, &bp);

    Checkpoint cp = Checkpoint::atPosition(3000);
    EXPECT_FALSE(cp.hasUarch());
    cp.attachUarch(mem, bp, "warm-key");
    EXPECT_TRUE(cp.hasUarch());
    EXPECT_EQ(cp.uarchKey(), "warm-key");
    ASSERT_TRUE(cp.saveFile(path));

    Checkpoint loaded = Checkpoint::atPosition(0);
    ASSERT_TRUE(Checkpoint::loadFile(path, loaded));
    EXPECT_EQ(loaded.instruction(), 3000u);
    ASSERT_TRUE(loaded.hasUarch());
    EXPECT_EQ(loaded.uarchKey(), "warm-key");

    // Restoring reproduces the warmed tables bit for bit.
    MemoryHierarchy mem2(mcfg);
    CombinedPredictor bp2(bcfg);
    ASSERT_TRUE(loaded.restoreUarch(mem2, bp2, "warm-key"));
    EXPECT_EQ(warmBlobOf(mem2, bp2), warmBlobOf(mem, bp));

    fs::remove_all(dir);
}

TEST(Checkpoint, UarchRestoreRefusesWrongKeyOrGeometry)
{
    Program p = loopProgram();
    MemoryConfig mcfg;
    BranchPredictorConfig bcfg;
    MemoryHierarchy mem(mcfg);
    CombinedPredictor bp(bcfg);
    FunctionalSim sim(p);
    sim.fastForwardWarm(3000, &mem, &bp);

    Checkpoint cp = Checkpoint::atPosition(3000);
    cp.attachUarch(mem, bp, "warm-key");

    MemoryHierarchy same(mcfg);
    CombinedPredictor samebp(bcfg);
    EXPECT_FALSE(cp.restoreUarch(same, samebp, "other-key"));

    // A differently-shaped hierarchy must fail structural validation
    // rather than silently absorb mismatched tables.
    MemoryConfig narrow = mcfg;
    narrow.l1d.sizeKb = mcfg.l1d.sizeKb / 2;
    MemoryHierarchy wrong(narrow);
    CombinedPredictor wrongbp(bcfg);
    EXPECT_FALSE(cp.restoreUarch(wrong, wrongbp, "warm-key"));
}

TEST(Checkpoint, StaleFormatVersionRejected)
{
    std::stringstream ss;
    Checkpoint::atPosition(100).writeBinary(ss);

    // Regress the leading version marker to the previous layout: the
    // reader must reject it rather than misparse the v3 arch slice.
    std::string bytes = ss.str();
    const uint32_t stale = kCheckpointFormatVersion - 1;
    bytes.replace(0, sizeof(stale),
                  reinterpret_cast<const char *>(&stale), sizeof(stale));
    std::stringstream rotted(bytes);
    Checkpoint out = Checkpoint::atPosition(0);
    EXPECT_FALSE(Checkpoint::readBinary(rotted, out));
}

} // namespace
} // namespace yasim
