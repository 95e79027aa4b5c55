// Window-parallel glitch replays.  When a power replay has fewer batches
// than workers, core::collect_activity splits each batch's propagation
// windows into contiguous ranges over the TaskPool; each range reaches its
// first window in zero delay (sim::BatchEventSimulatorT::run_windows).
// The split must be invisible: the merged counts equal the unsplit
// replay's at every thread count (also for a module whose state carries
// over between inferences, whose ranges catch up through earlier rounds),
// evaluate_circuit reports are identical at every power_threads, and the
// batch-event counters count every delay-accurate window and every batch
// exactly once.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "pml/arch/sequential_svm.hpp"
#include "pml/core/activity.hpp"
#include "pml/core/evaluate.hpp"
#include "pml/obs/metrics.hpp"
#include "pml/opt/cost_model.hpp"
#include "pml/power/power.hpp"
#include "pml/sim/backend.hpp"
#include "pml/sim/batch_event_sim.hpp"
#include "pml/sim/event_sim.hpp"
#include "pml/sim/levelize.hpp"
#include "warm_up_check.hpp"

namespace pml::core {
namespace {

using netlist::Module;

quant::QuantizedSvm tiny_model() {
  quant::QuantizedSvm q;
  q.strategy = ml::MulticlassStrategy::kOneVsRest;
  q.num_classes = 3;
  q.input_format = quant::input_format(3);
  q.weight_format =
      fixed::FixedFormat{.total_bits = 4, .frac_bits = 3, .is_signed = true};
  q.classifiers = {quant::QuantizedClassifier{{3, -2}, 1},
                   quant::QuantizedClassifier{{-1, 4}, 0},
                   quant::QuantizedClassifier{{2, 2}, -3}};
  return q;
}

/// `repeats` copies of the 64-sample exhaustive workload.
CircuitWorkload svm_workload(const quant::QuantizedSvm& q, int repeats) {
  CircuitWorkload wl;
  for (int r = 0; r < repeats; ++r) {
    for (std::int64_t a = 0; a <= 7; ++a) {
      for (std::int64_t b = 0; b <= 7; ++b) {
        wl.feature_codes.push_back({(a + 3 * r) % 8, b});
        wl.expected_class.push_back(q.predict_codes({(a + 3 * r) % 8, b}));
      }
    }
  }
  return wl;
}

CircuitWorkload accumulator_workload(std::size_t n) {
  CircuitWorkload wl;
  std::uint64_t s = 0x9E3779B97F4A7C15ull;
  for (std::size_t i = 0; i < n; ++i) {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    wl.feature_codes.push_back({static_cast<std::int64_t>(s & 0xF)});
    wl.expected_class.push_back(0);
  }
  return wl;
}

/// What the replay computes for any module: the samples cut into chunks
/// of `chunk`, each replayed on a fresh scalar EventSimulator after an
/// uncounted warm-up on its predecessor sample (sample 0 for the first).
/// For modules that reload their state every inference this is the one
/// serial stream whatever the chunk; for the accumulator it depends on
/// the chunk, so the test passes collect_activity's own choice.
sim::ActivityStats chunked_reference(const Module& m,
                                     const cells::CellLibrary& lib,
                                     int cycles, const CircuitWorkload& wl,
                                     std::size_t n, std::size_t chunk) {
  const auto lv = sim::levelize_shared(m);
  const auto ports = feature_ports(m, wl.feature_codes[0].size());
  sim::ActivityStats sum;
  sum.net_toggles.assign(m.num_nets(), 0);
  sum.net_functional.assign(m.num_nets(), 0);
  for (std::size_t begin = 0; begin < n; begin += chunk) {
    sim::EventSimulator es(m, lib, 0.02, lv);
    const auto apply = [&](std::size_t s) {
      for (std::size_t j = 0; j < ports.size(); ++j) {
        es.set_port(*ports[j],
                    static_cast<std::uint64_t>(wl.feature_codes[s][j]));
      }
      for (int c = 0; c < cycles; ++c) es.step();
    };
    apply(begin == 0 ? 0 : begin - 1);
    es.clear_activity();
    for (std::size_t s = begin; s < std::min(begin + chunk, n); ++s) apply(s);
    sum.accumulate(es.activity());
  }
  return sum;
}

void expect_stats_equal(const sim::ActivityStats& a,
                        const sim::ActivityStats& b) {
  EXPECT_EQ(a.net_toggles, b.net_toggles);
  EXPECT_EQ(a.net_functional, b.net_functional);
  EXPECT_EQ(a.dff_clock_events, b.dff_clock_events);
  EXPECT_EQ(a.cycles, b.cycles);
}

// One batch (the samples fit one lane word, one per lane), so every
// thread count above 1 splits its windows: 2..4 ranges of a 3-class SVM's
// 4 windows, and 5 or 6 threads still get 4 (more slots than windows).
TEST(WindowSplit, OneBatchReplayIsTheSameAtEveryThreadCount) {
  const auto lib = cells::CellLibrary::egfet();
  const auto q = tiny_model();
  const auto svm = arch::build_sequential_svm(q);
  const Module acc = sim::warm_check::accumulator_module();
  struct Case {
    const char* name;
    const Module& module;
    int cycles;
    CircuitWorkload wl;
  };
  for (const Case& c : {Case{"sequential_svm", svm.module,
                             svm.cycles_per_inference, svm_workload(q, 1)},
                        Case{"accumulator", acc, 3, accumulator_workload(64)}}) {
    for (const sim::Backend b : sim::available_backends()) {
      SCOPED_TRACE(std::string(c.name) + " " + sim::backend_name(b));
      ActivityOptions opts;
      opts.backend = b;
      opts.num_threads = 1;
      const auto serial =
          collect_activity(c.module, lib, c.cycles, c.wl, 24, opts);
      expect_stats_equal(
          serial, chunked_reference(c.module, lib, c.cycles, c.wl, 24, 1));
      for (const std::size_t threads : {2u, 3u, 4u, 5u, 6u}) {
        SCOPED_TRACE(threads);
        opts.num_threads = threads;
        expect_stats_equal(
            collect_activity(c.module, lib, c.cycles, c.wl, 24, opts), serial);
      }
    }
  }
}

// Multi-sample chunks with fewer batches than threads: 520 samples on 4
// u64 threads are chunks of 3 in 3 batches, each split into 2 ranges of
// its 3 rounds x 4 windows, so a range starts mid-round and catches up
// through the rounds before it.  Every thread count is checked against
// the chunked reference at collect_activity's chunk, ceil(n / (64 x
// threads)).
TEST(WindowSplit, RangesCatchUpThroughEarlierRounds) {
  const auto lib = cells::CellLibrary::egfet();
  const auto q = tiny_model();
  const auto svm = arch::build_sequential_svm(q);
  const Module acc = sim::warm_check::accumulator_module();
  constexpr std::size_t kSamples = 520;
  struct Case {
    const char* name;
    const Module& module;
    int cycles;
    CircuitWorkload wl;
  };
  for (const Case& c :
       {Case{"sequential_svm", svm.module, svm.cycles_per_inference,
             svm_workload(q, 9)},
        Case{"accumulator", acc, 3, accumulator_workload(kSamples)}}) {
    for (const std::size_t threads : {1u, 3u, 4u, 6u}) {
      SCOPED_TRACE(std::string(c.name) + " x" + std::to_string(threads));
      ActivityOptions opts;
      opts.backend = sim::Backend::kU64;
      opts.num_threads = threads;
      const std::size_t chunk = (kSamples + 64 * threads - 1) / (64 * threads);
      expect_stats_equal(
          collect_activity(c.module, lib, c.cycles, c.wl, kSamples, opts),
          chunked_reference(c.module, lib, c.cycles, c.wl, kSamples, chunk));
    }
  }
}

void expect_reports_equal(const HardwareReport& a, const HardwareReport& b) {
  EXPECT_EQ(a.area_cm2, b.area_cm2);
  EXPECT_EQ(a.power_mw, b.power_mw);
  EXPECT_EQ(a.frequency_hz, b.frequency_hz);
  EXPECT_EQ(a.latency_ms, b.latency_ms);
  EXPECT_EQ(a.energy_mj, b.energy_mj);
  EXPECT_EQ(a.static_mw, b.static_mw);
  EXPECT_EQ(a.dynamic_mw, b.dynamic_mw);
  EXPECT_EQ(a.dynamic_glitch_mw, b.dynamic_glitch_mw);
  EXPECT_EQ(a.functional_transitions, b.functional_transitions);
  EXPECT_EQ(a.glitch_transitions, b.glitch_transitions);
  EXPECT_EQ(a.logic_depth, b.logic_depth);
  EXPECT_EQ(a.num_cells, b.num_cells);
  EXPECT_EQ(a.num_dffs, b.num_dffs);
  EXPECT_EQ(a.opt_flow, b.opt_flow);
  EXPECT_EQ(a.opt_cost_probes, b.opt_cost_probes);
  EXPECT_EQ(a.verified, b.verified);
  ASSERT_EQ(a.groups.size(), b.groups.size());
  for (std::size_t g = 0; g < a.groups.size(); ++g) {
    EXPECT_EQ(a.groups[g].name, b.groups[g].name);
    EXPECT_EQ(a.groups[g].dynamic_mw, b.groups[g].dynamic_mw);
    EXPECT_EQ(a.groups[g].glitch_mw, b.groups[g].glitch_mw);
  }
}

// A sequential design with 48 power samples (one batch word): the power
// replay splits at 2 and 4 threads, and the "balanced" flow's cost probes
// split over the pool, on the context's lent simulators.
TEST(WindowSplit, EvaluateReportsAreIdenticalAtEveryPowerThreads) {
  const auto lib = cells::CellLibrary::egfet();
  const auto q = tiny_model();
  opt::OptOptions raw;
  raw.enabled = false;
  const auto svm = arch::build_sequential_svm(q, raw);
  const CircuitWorkload wl = svm_workload(q, 1);
  EvaluateOptions opts;
  opts.power_samples = 48;
  opts.optimize.flow = "balanced";
  opts.power_threads = 1;
  const HardwareReport serial =
      evaluate_circuit(svm.module, svm.cycles_per_inference, lib, wl, opts);
  ASSERT_TRUE(serial.verified);
  ASSERT_GT(serial.opt_cost_probes, 0u);
  for (const std::size_t threads : {2u, 4u}) {
    SCOPED_TRACE(threads);
    opts.power_threads = threads;
    expect_reports_equal(
        evaluate_circuit(svm.module, svm.cycles_per_inference, lib, wl, opts),
        serial);
  }
}

// Each delay-accurate window is simulated once whatever the split, so
// `sim.batch_event.lane_words` does not move with the thread count, and
// the batch counters count the one batch once.
TEST(WindowSplit, BatchEventCountersCountEachWindowAndBatchOnce) {
  const auto lib = cells::CellLibrary::egfet();
  const auto q = tiny_model();
  const auto svm = arch::build_sequential_svm(q);
  const CircuitWorkload wl = svm_workload(q, 1);
  std::uint64_t serial_words = 0;
  for (const std::size_t threads : {1u, 2u, 4u}) {
    SCOPED_TRACE(threads);
    ActivityOptions opts;
    opts.num_threads = threads;
    const obs::MetricsSnapshot before = obs::snapshot_metrics();
    (void)collect_activity(svm.module, lib, svm.cycles_per_inference, wl, 24,
                           opts);
    const obs::MetricsSnapshot d =
        obs::diff_metrics(before, obs::snapshot_metrics());
    const std::uint64_t words = d.counter_value("sim.batch_event.lane_words");
    ASSERT_GT(words, 0u);
    if (threads == 1) serial_words = words;
    EXPECT_EQ(words, serial_words);
    EXPECT_EQ(d.counter_value("sim.batch_event.batches"), 1u);
    EXPECT_EQ(d.counter_value("sim.batch_event.lanes_active"), 24u);
    EXPECT_EQ(d.counter_value("sim.batch_event.lane_capacity"),
              sim::backend_lanes(
                  sim::resolve_backend_for(sim::Backend::kAuto, 24)));
  }
}

// The cost probe counts the same lane words as the one-slot probe it
// splits.
TEST(WindowSplit, CostProbeCountsEachWindowOnce) {
  const auto lib = cells::CellLibrary::egfet();
  const auto q = tiny_model();
  opt::OptOptions raw;
  raw.enabled = false;
  const auto svm = arch::build_sequential_svm(q, raw);
  const CircuitWorkload wl = svm_workload(q, 1);
  const opt::ProbeWorkload probe =
      make_probe_workload(svm.module, svm.cycles_per_inference, wl, 48);
  ASSERT_EQ(probe.samples.size(), 48u);

  const auto lane_words = [](auto&& run) {
    const obs::MetricsSnapshot before = obs::snapshot_metrics();
    run();
    return obs::diff_metrics(before, obs::snapshot_metrics())
        .counter_value("sim.batch_event.lane_words");
  };
  double one_slot = 0.0;
  const std::uint64_t want = lane_words([&] {
    const auto lv = sim::levelize_shared(svm.module);
    sim::BatchEventSimulator sim(svm.module, lib, 0.02, lv);
    sim.set_count_mask((std::uint64_t{1} << 48) - 1);
    std::uint64_t values[64] = {};
    for (std::size_t p = 0; p < svm.module.input_ports().size(); ++p) {
      for (std::size_t lane = 0; lane < 48; ++lane) {
        values[lane] = probe.samples[lane][p];
      }
      sim.set_port(svm.module.input_ports()[p], values, 48);
    }
    for (int c = 0; c < svm.cycles_per_inference; ++c) sim.step();
    one_slot = power::switching_energy_nj(svm.module, lib, sim.activity(), *lv);
  });
  ASSERT_GT(want, 0u);
  const opt::SwitchingEnergyCost cost(lib, probe);
  double split = 0.0;
  EXPECT_EQ(lane_words([&] { split = cost.cost(svm.module); }), want);
  EXPECT_EQ(split, one_slot);
}

}  // namespace
}  // namespace pml::core
