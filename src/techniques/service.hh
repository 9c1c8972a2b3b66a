/**
 * @file
 * The simulation-service seam between the analyses and the engine.
 *
 * Every characterization and driver obtains technique results through a
 * SimulationService instead of calling Technique::run directly. The
 * plain DirectService just forwards; the ExperimentEngine (src/engine/)
 * implements the same interface with memoization, an on-disk result
 * cache, and pooled grid scheduling. Keeping the interface here — below
 * the engine in the dependency order — lets core analyses accept an
 * engine handle without core depending on the engine library.
 */

#ifndef YASIM_TECHNIQUES_SERVICE_HH
#define YASIM_TECHNIQUES_SERVICE_HH

#include "techniques/technique.hh"

namespace yasim {

class TraceStore;

/** Abstract provider of technique results and reference lengths. */
class SimulationService
{
  public:
    virtual ~SimulationService() = default;

    /** Produce @p technique's result for (@p ctx, @p config). */
    virtual TechniqueResult run(const Technique &technique,
                                const TechniqueContext &ctx,
                                const SimConfig &config) = 0;

    /** Dynamic length of @p benchmark's reference input. */
    virtual uint64_t referenceLength(const std::string &benchmark,
                                     const SuiteConfig &suite) = 0;

    /**
     * The shared execution-trace store, or nullptr when this service
     * has none (each run then replays a private recording).
     * TechniqueContext::make copies this into the context it builds.
     */
    virtual TraceStore *traceStore() { return nullptr; }
};

/** Pass-through service: simulate on every call, cache nothing. */
class DirectService final : public SimulationService
{
  public:
    TechniqueResult run(const Technique &technique,
                        const TechniqueContext &ctx,
                        const SimConfig &config) override
    {
        return technique.run(ctx, config);
    }

    uint64_t referenceLength(const std::string &benchmark,
                             const SuiteConfig &suite) override
    {
        return measureReferenceLength(benchmark, suite);
    }
};

} // namespace yasim

#endif // YASIM_TECHNIQUES_SERVICE_HH
