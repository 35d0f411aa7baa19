#include "netsim/simulator.hpp"

namespace ddpm::netsim {

std::uint64_t Simulator::run(SimTime until) {
  std::uint64_t count = 0;
  EventWheel::Fired event;
  while (wheel_.pop_due(until, event)) {
    now_ = event.when;
    event.action();
    event.action.reset();  // captures die as the event finishes
    ++executed_;
    ++count;
    probes_.on_pop(executed_, wheel_.size());
  }
  // Advance the clock to the horizon so back-to-back run() calls with
  // increasing horizons behave like one continuous run.
  if (until != std::numeric_limits<SimTime>::max() && until > now_) {
    now_ = until;
  }
  return count;
}

}  // namespace ddpm::netsim
