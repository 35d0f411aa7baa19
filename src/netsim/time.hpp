// Simulation time, shared by the kernel and by every layer that stamps
// packets, flow records or detector windows with it.
#pragma once

#include <cstdint>

namespace ddpm::netsim {

/// Simulation time in abstract ticks. One tick is whatever the model says it
/// is; the cluster model uses nanoseconds.
using SimTime = std::uint64_t;

}  // namespace ddpm::netsim
