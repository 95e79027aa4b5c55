#pragma once
// BatchEventSimulatorT<L>::warm_up against the delay-accurate round it
// replaces, on any lane word.  tests/test_sim_batch_event.cpp runs it on u64;
// warm_up_avx2.cpp / warm_up_avx512.cpp instantiate it under the matching
// -m flag (as the library's backend TUs do) and export a plain function.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "pml/cells/library.hpp"
#include "pml/netlist/module.hpp"

namespace pml::sim::warm_check {

/// A circuit and the stimulus the check drives through every lane.
struct Case {
  const netlist::Module* module = nullptr;
  const cells::CellLibrary* lib = nullptr;
  double quantum = 0.02;
  /// Clock cycles per round; <= 0 settles once (combinational).
  int cycles = 0;
  std::vector<const netlist::Port*> ports;
  /// Lane `lane` of round `r` drives row (r * lanes + lane) % size.
  std::vector<std::vector<std::int64_t>> samples;
};

/// Empty iff the check passed on the u64 lane word, else what differed.
[[nodiscard]] std::string warm_up_mismatch_u64(const Case& c);
/// As above on AVX2 / AVX-512; callers check sim::backend_available.
[[nodiscard]] std::string warm_up_mismatch_avx2(const Case& c);
[[nodiscard]] std::string warm_up_mismatch_avx512(const Case& c);

}  // namespace pml::sim::warm_check

#ifdef PML_WARM_UP_CHECK_IMPL
#include "pml/sim/batch_event_sim.hpp"
#include "pml/sim/levelize.hpp"

namespace pml::sim::warm_check {

/// Two simulators from one state: `warm` runs warm_up(cycles), `event`
/// the delay-accurate round (settle(), or step() x cycles).  Checked from
/// power-on reset, then again after both replay one counted round from
/// the warmed state: that round must count identically on both, and
/// after each warm-up every net and DFF lane must agree while `warm`'s
/// counters stay zero.
template <class L>
std::string warm_up_mismatch(const Case& c) {
  constexpr std::size_t kLanes = L::kWidth;
  const auto lv = levelize_shared(*c.module);
  BatchEventSimulatorT<L> warm(*c.module, *c.lib, c.quantum, lv);
  BatchEventSimulatorT<L> event(*c.module, *c.lib, c.quantum, lv);
  std::vector<std::uint64_t> values(kLanes);
  const auto stage = [&](BatchEventSimulatorT<L>& s, std::size_t round) {
    for (std::size_t j = 0; j < c.ports.size(); ++j) {
      for (std::size_t lane = 0; lane < kLanes; ++lane) {
        values[lane] = static_cast<std::uint64_t>(
            c.samples[(round * kLanes + lane) % c.samples.size()][j]);
      }
      s.set_port(*c.ports[j], values.data(), kLanes);
    }
  };
  const auto event_round = [&](BatchEventSimulatorT<L>& s) {
    if (c.cycles <= 0) {
      s.settle();
    } else {
      for (int k = 0; k < c.cycles; ++k) s.step();
    }
  };

  for (const bool after_counted : {false, true}) {
    const std::string when =
        after_counted ? " after a counted round" : " after reset";
    if (after_counted) {
      warm.clear_activity();
      event.clear_activity();
      for (auto* s : {&warm, &event}) {
        stage(*s, 1);
        event_round(*s);
      }
      const ActivityStats& a = warm.activity();
      const ActivityStats& b = event.activity();
      if (a.net_toggles != b.net_toggles ||
          a.net_functional != b.net_functional ||
          a.dff_clock_events != b.dff_clock_events || a.cycles != b.cycles) {
        return "a counted round after warm_up counts differently";
      }
      warm.clear_activity();
    }
    const std::size_t round = after_counted ? 2 : 0;
    stage(warm, round);
    warm.warm_up(c.cycles);
    stage(event, round);
    event_round(event);

    for (std::size_t n = 0; n < c.module->num_nets(); ++n) {
      const auto net = static_cast<netlist::NetId>(n);
      for (std::size_t lane = 0; lane < kLanes; ++lane) {
        if (warm.net(net, lane) != event.net(net, lane)) {
          return "net " + std::to_string(n) + " lane " +
                 std::to_string(lane) + " differs" + when;
        }
      }
    }
    for (std::size_t i = 0; i < lv->dffs.size(); ++i) {
      for (std::size_t lane = 0; lane < kLanes; ++lane) {
        if (warm.dff_state(i, lane) != event.dff_state(i, lane)) {
          return "dff " + std::to_string(i) + " lane " +
                 std::to_string(lane) + " differs" + when;
        }
      }
    }
    const ActivityStats& a = warm.activity();
    for (std::size_t n = 0; n < a.net_toggles.size(); ++n) {
      if (a.net_toggles[n] != 0 || a.net_functional[n] != 0) {
        return "warm_up counted net " + std::to_string(n) + when;
      }
    }
    if (a.dff_clock_events != 0 || a.cycles != 0) {
      return "warm_up counted clock events" + when;
    }
  }
  return {};
}

}  // namespace pml::sim::warm_check
#endif  // PML_WARM_UP_CHECK_IMPL
