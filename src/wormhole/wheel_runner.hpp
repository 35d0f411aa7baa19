// Drives a WormholeNetwork as a periodic link-clock event on the
// simulation kernel — i.e. on the calendar-wheel event queue.
//
// The wormhole substrate is cycle-stepped; standalone harnesses call
// WormholeNetwork::run(). But scenario drivers that mix the flit model
// with event-driven machinery (attack onset timers, cluster-side traffic,
// measurement epochs) need the link clock to live on the same timeline as
// everything else. run_on_wheel() schedules the clock as one
// self-rescheduling event with a fixed period — exactly the regular
// cadence the wheel's bucket path handles in O(1), never touching its
// overflow heap (tests/test_event_wheel.cpp asserts this) — so a
// million-cycle run adds no O(log n) sift cost on top of the engine's
// per-step work.
#pragma once

#include <cstdint>

#include "netsim/simulator.hpp"
#include "wormhole/wormhole.hpp"

namespace ddpm::wormhole {

/// Schedules `net`'s link clock on `sim` (first tick at now + tick_period,
/// then every tick_period) for `cycles` steps, and runs the simulator
/// until its queue drains or `until` passes. Interleaves correctly with
/// any other events already pending on `sim`. Returns the number of
/// events the simulator executed.
std::uint64_t run_on_wheel(
    netsim::Simulator& sim, WormholeNetwork& net, std::uint64_t cycles,
    netsim::SimTime tick_period,
    netsim::SimTime until = std::numeric_limits<netsim::SimTime>::max());

}  // namespace ddpm::wormhole
