/**
 * @file
 * Golden result corpus: pins the model's absolute output.
 *
 * Every other test checks a property (replay == interpretation,
 * parallel == serial, cold == warm). This one checks values: for gzip
 * and mcf at 100000 reference instructions, each Table-3 configuration
 * crossed with one permutation of every technique family (plus the
 * 4-shard reference run) is digested field by field — SimStats, CPI,
 * metrics, BBEF/BBV, work units, detailed instructions — and compared
 * with the checked-in corpus in digests.txt. Each case runs through
 * every kind of context a caller can build (engine with a trace store,
 * store-less DirectService), and all kinds must produce the one
 * corpus line.
 *
 * Updating the corpus is an explicit step, never a side effect of a
 * run:
 *
 *     YASIM_UPDATE_GOLDEN=1 ./build/tests/test_golden \
 *         --gtest_filter='*StoreBacked*'
 *
 * rewrites digests.txt from the store-backed context; then rerun
 * without the variable and justify the diff in CHANGES.md. A change to
 * any digest means a result changed somewhere in the model.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "engine/engine.hh"
#include "sim/config.hh"
#include "support/hash.hh"
#include "techniques/full_reference.hh"
#include "techniques/reduced_input.hh"
#include "techniques/service.hh"
#include "techniques/simpoint.hh"
#include "techniques/smarts.hh"
#include "techniques/truncated.hh"

using namespace yasim;

namespace {

constexpr uint64_t kRefInsts = 100000;

const char *const kBenchmarks[] = {"gzip", "mcf"};

SuiteConfig
goldenSuite()
{
    SuiteConfig suite;
    suite.referenceInstructions = kRefInsts;
    return suite;
}

/** One technique of the corpus and the shards it runs under. */
struct Case
{
    std::string label;
    TechniquePtr technique;
    uint32_t shards = 1;
};

std::vector<Case>
goldenCases(const std::string &benchmark)
{
    std::vector<Case> cases = {
        {"reference", std::make_shared<FullReference>()},
        {"reference-shards4", std::make_shared<FullReference>(), 4},
        {"runz-1000", std::make_shared<RunZ>(1000.0)},
        {"ffrun-1000-500", std::make_shared<FfRunZ>(1000.0, 500.0)},
        {"ffwurun-990-10-500",
         std::make_shared<FfWuRunZ>(990.0, 10.0, 500.0)},
        {"simpoint-multiple-10M",
         std::make_shared<SimPoint>(10.0, 100, 1.0, "multiple 10M")},
        {"smarts-1000-2000", std::make_shared<Smarts>(1000, 2000)},
    };
    const InputSet reduced =
        hasInput(benchmark, InputSet::Small) ? InputSet::Small
                                             : InputSet::Train;
    cases.push_back({std::string("reduced-") + inputSetName(reduced),
                     std::make_shared<ReducedInput>(reduced)});
    return cases;
}

/** Digest of every result field the corpus pins. */
std::string
digestOf(const TechniqueResult &r)
{
    Hasher h;
    const SimStats &s = r.detailed;
    for (uint64_t v :
         {s.instructions, s.cycles, s.condBranches, s.condMispredicts,
          s.l1iAccesses, s.l1iMisses, s.l1dAccesses, s.l1dMisses,
          s.l2Accesses, s.l2Misses, s.trivialOps, s.prefetchesIssued,
          s.memStallCycles}) {
        h.u64(v);
    }
    h.d(r.cpi);
    for (const std::vector<double> *vec : {&r.metrics, &r.bbef, &r.bbv}) {
        h.u64(vec->size());
        for (double v : *vec)
            h.d(v);
    }
    h.d(r.workUnits);
    h.u64(r.detailedInsts);
    return h.hex();
}

/**
 * Run the whole corpus for @p benchmark through @p service, one corpus
 * line per (configuration, case), in a fixed order.
 */
std::vector<std::string>
corpusLines(const std::string &benchmark, SimulationService &service)
{
    const SuiteConfig suite = goldenSuite();
    TechniqueContext base =
        TechniqueContext::make(benchmark, suite, service);
    std::vector<std::string> lines;
    for (int index = 1; index <= 4; ++index) {
        const SimConfig config = architecturalConfig(index);
        for (const Case &c : goldenCases(benchmark)) {
            TechniqueContext ctx = base;
            ctx.shards.shards = c.shards;
            const TechniqueResult r =
                service.run(*c.technique, ctx, config);
            char head[160];
            std::snprintf(head, sizeof(head),
                          "%s #%d %s cpi=%.17g insts=%llu ",
                          benchmark.c_str(), index, c.label.c_str(),
                          r.cpi,
                          static_cast<unsigned long long>(
                              r.detailedInsts));
            lines.push_back(head + digestOf(r));
        }
    }
    return lines;
}

std::vector<std::string>
readCorpus(const std::string &benchmark)
{
    std::ifstream in(YASIM_GOLDEN_FILE);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind(benchmark + " ", 0) == 0)
            lines.push_back(line);
    }
    return lines;
}

bool
updating()
{
    const char *v = std::getenv("YASIM_UPDATE_GOLDEN");
    return v && std::string(v) == "1";
}

void
checkAgainstCorpus(const std::string &benchmark,
                   const std::vector<std::string> &got)
{
    const std::vector<std::string> want = readCorpus(benchmark);
    ASSERT_EQ(want.size(), got.size())
        << "corpus " << YASIM_GOLDEN_FILE << " has " << want.size()
        << " lines for " << benchmark << "; see the file comment of "
        << "test_golden.cc for the update step";
    for (size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(want[i], got[i]) << "corpus line " << i;
}

class Golden : public ::testing::TestWithParam<const char *>
{
};

TEST_P(Golden, StoreBackedEngineMatchesCorpus)
{
    const std::string bench = GetParam();
    ExperimentEngine engine;
    const std::vector<std::string> got = corpusLines(bench, engine);
    if (updating()) {
        // Rewrite this benchmark's block, keeping the others.
        std::ifstream in(YASIM_GOLDEN_FILE);
        std::ostringstream kept;
        std::string line;
        while (std::getline(in, line)) {
            if (line.rfind(bench + " ", 0) != 0)
                kept << line << "\n";
        }
        in.close();
        std::ofstream out(YASIM_GOLDEN_FILE, std::ios::trunc);
        out << kept.str();
        for (const std::string &l : got)
            out << l << "\n";
        GTEST_SKIP() << "corpus rewritten for " << bench;
    }
    checkAgainstCorpus(bench, got);
}

TEST_P(Golden, StoreLessDirectServiceMatchesCorpus)
{
    DirectService direct;
    checkAgainstCorpus(GetParam(), corpusLines(GetParam(), direct));
}

INSTANTIATE_TEST_SUITE_P(Corpus, Golden, ::testing::ValuesIn(kBenchmarks),
                         [](const auto &info) {
                             return std::string(info.param);
                         });

} // namespace
