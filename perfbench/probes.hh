/**
 * @file
 * Per-layer probes for the traced run.
 *
 * Each probe drives one library layer through its public API on the
 * workload's own benchmarks and probe configuration: the programs are
 * built and recorded here, and the uarch structures replay the address,
 * branch and instruction streams of those recordings. No Rng runs
 * inside a timed loop, and every probe does a fixed amount of work, so
 * the hit counts it reports repeat exactly from run to run.
 */

#ifndef YASIM_PERFBENCH_PROBES_HH
#define YASIM_PERFBENCH_PROBES_HH

#include <string>
#include <vector>

#include "harness.hh"
#include "workloads.hh"

namespace perfbench {

/**
 * Run every layer probe for @p w. @p payload is a serialized result of
 * the workload's typical size (artifact_io probe); @p dir is scratch
 * space, removed afterwards. Throws std::runtime_error when a probed
 * artifact does not read back as written.
 */
std::vector<Metric> runProbes(const Workload &w,
                              const yasim::SuiteConfig &suite,
                              const std::string &payload,
                              const std::string &dir, Tracer &tracer);

} // namespace perfbench

#endif // YASIM_PERFBENCH_PROBES_HH
