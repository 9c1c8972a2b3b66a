// Fixture: G1 positive for the sim trace-consumer policy. A shard
// runner that drives the interpreter directly is a live twin growing
// back; it must replay the trace instead.
#include "sim/functional.hh"

namespace yasim {

void
runShardLive(FunctionalSim &sim)
{
    sim.step();
}

} // namespace yasim
