// Fixture: G1 negative for the sim trace-consumer policy. The core
// consumes a stream without ever reaching the interpreter.

namespace yasim {

int
coreWidth()
{
    return 4;
}

} // namespace yasim
