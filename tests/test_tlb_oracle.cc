/**
 * @file
 * Oracle test for the TLB: the indexed Tlb (uarch/tlb.hh) against the
 * naive linear-scan NaiveTlb (oracles/naive_tlb.hh), op by op.
 *
 * Each case drives one address stream through both TLBs of one
 * geometry and compares every access()/touch() result and the stats
 * after every op, and the serialized warm blobs every 1000 ops. The
 * streams are the gzip and mcf instruction and data address streams
 * replayed from their recorded traces, plus a random page stream. Along
 * the way each case restores a truncated blob (which must fail on both,
 * followed by reset()), round-trips a half-filled TLB through a fresh
 * pair, and restores a blob with punched-out entries, so the index is
 * rebuilt over invalid holes and stale pages.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "oracles/naive_tlb.hh"
#include "sim/trace.hh"
#include "support/rng.hh"
#include "uarch/tlb.hh"
#include "workloads/suite.hh"

namespace yasim {
namespace {

struct Streams
{
    std::vector<uint64_t> inst;
    std::vector<uint64_t> data;
};

Streams
recordStreams(const std::string &bench)
{
    SuiteConfig suite;
    suite.referenceInstructions = 100'000;
    Workload w = buildWorkload(bench, InputSet::Reference, suite);
    TraceReplayer replay(ExecTrace::record(w.program));
    Streams s;
    std::vector<ExecRecord> buf(4096);
    while (uint64_t n = replay.stepBatch(buf.data(), buf.size())) {
        for (uint64_t i = 0; i < n; ++i) {
            s.inst.push_back(Program::pcAddress(buf[i].pc));
            if (buf[i].inst->isLoad() || buf[i].inst->isStore())
                s.data.push_back(buf[i].memAddr);
        }
    }
    return s;
}

const std::vector<uint64_t> &
stream(const std::string &name)
{
    static const Streams gzip = recordStreams("gzip");
    static const Streams mcf = recordStreams("mcf");
    static const std::vector<uint64_t> random = [] {
        // 600 pages: more than the largest TLB, so every geometry both
        // hits and evicts.
        Rng rng(17);
        std::vector<uint64_t> addrs(60'000);
        for (uint64_t &a : addrs)
            a = rng.nextBelow(600) * 4096 + rng.nextBelow(4096);
        return addrs;
    }();
    if (name == "gzip_inst")
        return gzip.inst;
    if (name == "gzip_data")
        return gzip.data;
    if (name == "mcf_inst")
        return mcf.inst;
    if (name == "mcf_data")
        return mcf.data;
    return random;
}

template <typename T>
std::string
blobOf(const T &tlb)
{
    std::ostringstream os;
    tlb.serializeWarmState(os);
    return os.str();
}

template <typename T>
bool
restore(T &tlb, const std::string &blob)
{
    std::istringstream is(blob);
    return tlb.deserializeWarmState(is);
}

/** The warm blob's layout: shift, count, clock, then per entry. */
constexpr size_t kBlobHeader = 4 + 8 + 8;
constexpr size_t kBlobEntry = 8 + 8 + 1;

/** The indexed TLB and the oracle, driven in lockstep. */
struct Lockstep
{
    explicit Lockstep(uint32_t entries)
        : fast("oracle", entries), slow(entries)
    {
    }

    /** One access() (or touch() when @p warm) on both. */
    void op(uint64_t addr, bool warm)
    {
        bool hit = warm ? fast.touch(addr) : fast.access(addr);
        bool want = warm ? slow.touch(addr) : slow.access(addr);
        ASSERT_EQ(hit, want) << "op " << ops << " addr " << addr;
        ASSERT_EQ(fast.stats().accesses, slow.stats().accesses);
        ASSERT_EQ(fast.stats().misses, slow.stats().misses);
        fillsSinceReset += hit ? 0 : 1;
        if (++ops % 1000 == 0) {
            ASSERT_EQ(blobOf(fast), blobOf(slow)) << "op " << ops;
        }
    }

    void reset()
    {
        fast.reset();
        slow.reset();
        fillsSinceReset = 0;
    }

    Tlb fast;
    oracle::NaiveTlb slow;
    uint64_t ops = 0;
    uint64_t fillsSinceReset = 0;
};

class TlbOracle
    : public ::testing::TestWithParam<std::tuple<const char *, uint32_t>>
{
};

TEST_P(TlbOracle, IndexedMatchesLinearScan)
{
    const std::vector<uint64_t> &addrs = stream(std::get<0>(GetParam()));
    const uint32_t n = std::get<1>(GetParam());
    ASSERT_GE(addrs.size(), 3000u);
    const size_t third = addrs.size() / 3;
    Lockstep tlbs(n);
    auto drive = [&](size_t i) { tlbs.op(addrs[i], i % 4 == 3); };

    // Phase 1 from empty.
    for (size_t i = 0; i < third; ++i) {
        drive(i);
        if (HasFatalFailure())
            return;
    }

    // A truncated blob fails on both; reset() then empties both alike.
    const std::string blob = blobOf(tlbs.fast);
    ASSERT_EQ(blob, blobOf(tlbs.slow));
    const std::string cut = blob.substr(0, blob.size() / 2);
    EXPECT_FALSE(restore(tlbs.fast, cut));
    EXPECT_FALSE(restore(tlbs.slow, cut));
    tlbs.reset();
    ASSERT_EQ(blobOf(tlbs.fast), blobOf(tlbs.slow));

    // Phase 2 from the reset; the first time the TLB is half full (or
    // at the end, for a stream with fewer pages), round-trip it through
    // a fresh pair: low entries invalid, with phase 1's stale pages.
    bool round_tripped = false;
    for (size_t i = third; i < 2 * third; ++i) {
        drive(i);
        if (HasFatalFailure())
            return;
        if (!round_tripped && (tlbs.fillsSinceReset == (n + 1) / 2 ||
                               i + 1 == 2 * third)) {
            const std::string half = blobOf(tlbs.fast);
            Lockstep fresh(n);
            ASSERT_TRUE(restore(fresh.fast, half));
            ASSERT_TRUE(restore(fresh.slow, half));
            ASSERT_EQ(blobOf(fresh.fast), half);
            ASSERT_EQ(blobOf(fresh.slow), half);
            tlbs.fast = std::move(fresh.fast);
            tlbs.slow = std::move(fresh.slow);
            round_tripped = true;
        }
    }

    // Punch holes: invalidate every third entry of the current blob and
    // restore it into both, so invalid entries sit between valid ones.
    std::string holed = blobOf(tlbs.slow);
    ASSERT_EQ(holed, blobOf(tlbs.fast));
    for (uint32_t e = 0; e < n; e += 3)
        holed[kBlobHeader + e * kBlobEntry + 16] = 0;
    ASSERT_TRUE(restore(tlbs.fast, holed));
    ASSERT_TRUE(restore(tlbs.slow, holed));

    // Phase 3 over the holes.
    for (size_t i = 2 * third; i < addrs.size(); ++i) {
        drive(i);
        if (HasFatalFailure())
            return;
    }
    EXPECT_EQ(blobOf(tlbs.fast), blobOf(tlbs.slow));
}

INSTANTIATE_TEST_SUITE_P(
    Streams, TlbOracle,
    ::testing::Combine(::testing::Values("gzip_inst", "gzip_data",
                                         "mcf_inst", "mcf_data", "random"),
                       ::testing::Values(1u, 2u, 4u, 16u, 64u, 128u,
                                         256u)),
    [](const auto &info) {
        return std::string(std::get<0>(info.param)) + "_" +
               std::to_string(std::get<1>(info.param));
    });

/**
 * Pages 1, 2, 3 in entries 3, 2, 1 with stamps 1, 2, 3; entry 0 is
 * invalid. The tests below edit it into blobs no op sequence produces.
 */
std::string
fourEntryBlob()
{
    Tlb tlb("t", 4);
    tlb.access(0x1000);
    tlb.access(0x2000);
    tlb.access(0x3000);
    return blobOf(tlb);
}

void
expectEmpty(Tlb &tlb)
{
    Tlb fresh("t", 4);
    std::string got = blobOf(tlb);
    std::string want = blobOf(fresh);
    // Same clock and valid bits as a fresh TLB; stale pages may remain.
    EXPECT_EQ(got.substr(12, 8), want.substr(12, 8));
    for (uint32_t e = 0; e < 4; ++e)
        EXPECT_EQ(got[kBlobHeader + e * kBlobEntry + 16], 0) << e;
    EXPECT_FALSE(tlb.touch(0x1000));
}

TEST(TlbIndex, RefusesDuplicatePage)
{
    std::string blob = fourEntryBlob();
    // Entries 3 and 2 hold pages 1 and 2; give entry 2 page 1 as well.
    blob.replace(kBlobHeader + 2 * kBlobEntry, 8,
                 blob.substr(kBlobHeader + 3 * kBlobEntry, 8));
    Tlb tlb("t", 4);
    tlb.access(0x5000);
    EXPECT_FALSE(restore(tlb, blob));
    expectEmpty(tlb);
}

TEST(TlbIndex, RefusesStampPastClock)
{
    std::string blob = fourEntryBlob();
    blob[kBlobHeader + 3 * kBlobEntry + 8] = 100; // clock is 3
    Tlb tlb("t", 4);
    EXPECT_FALSE(restore(tlb, blob));
    expectEmpty(tlb);
}

TEST(TlbIndex, EqualStampsEvictLowestIndexFirst)
{
    // Two valid entries with one stamp: the scan evicts the lower index.
    std::string blob = fourEntryBlob();
    blob[kBlobHeader + 2 * kBlobEntry + 8] = 1; // entry 2 shares stamp 1
    Tlb tlb("t", 4);
    oracle::NaiveTlb naive(4);
    ASSERT_TRUE(restore(tlb, blob));
    ASSERT_TRUE(restore(naive, blob));
    for (uint64_t page : {7, 8, 2, 1, 9, 3}) {
        EXPECT_EQ(tlb.access(page << 12), naive.access(page << 12)) << page;
        EXPECT_EQ(blobOf(tlb), blobOf(naive)) << page;
    }
}

} // namespace
} // namespace yasim
