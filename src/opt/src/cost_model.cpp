#include "pml/opt/cost_model.hpp"

#include <stdexcept>

#include "pml/power/power.hpp"
#include "pml/sim/batch_event_sim.hpp"
#include "pml/sim/levelize.hpp"
#include "pml/util/arena.hpp"
#include "pml/util/task_pool.hpp"

namespace pml::opt {

double CellCountCost::cost(const netlist::Module& m) const {
  return static_cast<double>(m.cells().size());
}

struct SwitchingEnergyCost::Scratch {
  sim::Levelization lv;
  /// Aliasing handle onto lv: no control block, so rebinding a simulator
  /// to it never allocates.
  std::shared_ptr<const sim::Levelization> lv_handle{std::shared_ptr<void>(),
                                                     &lv};
  util::Arena arena;
  std::vector<sim::ActivityStats> counts;  ///< per slot; [0] sums them
};

SwitchingEnergyCost::SwitchingEnergyCost(const cells::CellLibrary& lib,
                                         ProbeWorkload probe,
                                         double time_quantum_ms)
    : lib_(lib),
      probe_(std::move(probe)),
      time_quantum_ms_(time_quantum_ms),
      scratch_(std::make_unique<Scratch>()) {
  if (probe_.samples.empty()) {
    throw std::invalid_argument("SwitchingEnergyCost: empty probe workload");
  }
}

SwitchingEnergyCost::~SwitchingEnergyCost() = default;

double SwitchingEnergyCost::cost(const netlist::Module& m) const {
  constexpr std::size_t kLanes = sim::BatchEventSimulator::kLanes;
  const auto& inputs = m.input_ports();
  const std::size_t lanes = std::min(probe_.samples.size(), kLanes);
  // One inference per lane from the power-on state: enough signal to rank
  // candidates, cheap enough to probe after every pass application.  Its
  // windows, the input settle then one per clock edge, are split over the
  // pool.
  const int windows = std::max(probe_.cycles_per_inference, 0) + 1;
  util::TaskPool& pool = util::TaskPool::instance();
  const int slots = static_cast<int>(
      std::min(pool.size(), static_cast<std::size_t>(windows)));

  Scratch& s = *scratch_;
  s.arena.reset();
  sim::levelize_into(m, s.lv, s.arena);
  if (s.counts.size() < static_cast<std::size_t>(slots)) s.counts.resize(slots);
  pool.run_group(slots, "opt.cost_probe", [&](std::size_t slot) {
    // Rebinding resets the simulator (staged inputs, counters, count
    // mask), so nothing a previous probe left behind, thrown or not,
    // survives.
    sim::BatchEventSimulator& sim = sim::thread_simulator<sim::LaneU64>();
    sim.rebind(m, lib_, time_quantum_ms_, s.lv_handle);
    sim.set_count_mask(lanes == kLanes ? ~std::uint64_t{0}
                                       : (std::uint64_t{1} << lanes) - 1);
    std::uint64_t lane_values[kLanes] = {};
    for (std::size_t p = 0; p < inputs.size(); ++p) {
      for (std::size_t lane = 0; lane < lanes; ++lane) {
        if (probe_.samples[lane].size() != inputs.size()) {
          throw std::invalid_argument(
              "SwitchingEnergyCost: probe sample width != input port count");
        }
        lane_values[lane] = probe_.samples[lane][p];
      }
      sim.set_port(inputs[p], lane_values, lanes);
    }
    const int k = static_cast<int>(slot);
    sim.run_windows(k * windows / slots, (k + 1) * windows / slots);
    s.counts[slot] = sim.activity();
  });
  // Integer counts: the sum equals the one-slot replay's exactly.
  for (int k = 1; k < slots; ++k) s.counts[0].accumulate(s.counts[k]);
  return power::switching_energy_nj(m, lib_, s.counts[0], s.lv);
}

}  // namespace pml::opt
