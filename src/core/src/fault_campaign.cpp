#include "pml/core/fault_campaign.hpp"

#include <algorithm>
#include <atomic>
#include <map>
#include <stdexcept>
#include <utility>

#include "backends/kernels.hpp"
#include "pml/ml/rng.hpp"
#include "pml/obs/metrics.hpp"
#include "pml/obs/trace.hpp"
#include "pml/sim/backend.hpp"
#include "pml/sim/batch_sim.hpp"
#include "pml/util/task_pool.hpp"

namespace pml::core {

std::vector<FaultSet> enumerate_single_faults(const netlist::Module& module) {
  std::vector<FaultSet> sets;
  sets.reserve(module.cells().size() * 2);
  for (const netlist::Cell& c : module.cells()) {
    sets.push_back(FaultSet{{StuckAtFault{c.out, false}}});
    sets.push_back(FaultSet{{StuckAtFault{c.out, true}}});
  }
  return sets;
}

std::vector<FaultSet> sample_fault_sets(const netlist::Module& module,
                                        std::size_t faults_per_set,
                                        std::size_t num_sets,
                                        std::uint64_t seed) {
  if (module.cells().empty()) {
    throw std::invalid_argument("sample_fault_sets: module has no cells");
  }
  if (faults_per_set == 0) {
    throw std::invalid_argument("sample_fault_sets: zero faults per set");
  }
  const auto& cells = module.cells();
  ml::Rng rng(seed);
  std::vector<FaultSet> sets(num_sets);
  for (FaultSet& set : sets) {
    set.faults.reserve(faults_per_set);
    for (std::size_t f = 0; f < faults_per_set; ++f) {
      const auto idx = static_cast<std::size_t>(rng.below(cells.size()));
      set.faults.push_back(StuckAtFault{cells[idx].out, rng.below(2) == 1});
    }
  }
  return sets;
}

namespace {

/// Net marks for one cone or closure.
class NetMarks {
 public:
  explicit NetMarks(std::size_t num_nets) : marked_(num_nets, 0) {}
  /// Mark `net`; false if it already was.
  bool mark(netlist::NetId net) {
    return std::exchange(marked_[net], char{1}) == 0;
  }
  [[nodiscard]] bool marked(netlist::NetId net) const {
    return marked_[net] != 0;
  }

 private:
  std::vector<char> marked_;
};

/// The comb cells (in levelized order) and DFFs whose outputs are marked.
void collect_cells(const netlist::Module& module, const sim::Levelization& lv,
                   const NetMarks& marks, std::vector<std::uint32_t>& comb,
                   std::vector<std::uint32_t>& dffs) {
  const auto& cells = module.cells();
  for (const std::uint32_t c : lv.comb_order) {
    if (marks.marked(cells[c].out)) comb.push_back(c);
  }
  for (const std::uint32_t c : lv.dffs) {
    if (marks.marked(cells[c].out)) dffs.push_back(c);
  }
}

/// Which batches a campaign simulates, on which cones, fed how.
struct CampaignPlan {
  /// Batches whose cone reaches `class`, in variant order.
  std::vector<backends::FaultBatch> batches;
  /// (begin, count) of the batches whose cone misses `class`.
  std::vector<std::pair<std::size_t, std::size_t>> unobserved;
  /// Nets the golden trace records (every batch's fed nets), ascending.
  std::vector<netlist::NetId> traced;
};

/// Pack the variants into the fewest batches of at most `per_batch`,
/// sized within one of each other, and find each batch's cone: its fault
/// sites and their transitive fanout through comb cells and DFFs.
/// Outside the cone every lane holds the fault-free value, so a batch
/// whose cone misses `class` needs no simulation, and the others evaluate
/// only their cone.  What a cone reads but does not drive is its
/// boundary: the cell-driven nets outside it read by its comb cells or
/// DFF D pins.  Each batch is fed its boundary, and any class bits outside
/// its cone, from the golden trace.  The batches are planned on the
/// TaskPool, `num_threads` slots wide (0 = the pool's width), each into its
/// own entry; the plan is assembled in batch order, so it does not depend
/// on which slot planned which batch.
CampaignPlan plan_campaign(const netlist::Module& module,
                           const sim::Levelization& lv,
                           const std::vector<std::int32_t>& drivers,
                           const netlist::Port& class_port,
                           const std::vector<FaultSet>& fault_sets,
                           std::size_t per_batch, std::size_t num_threads,
                           const util::CancellationToken* cancel) {
  const auto& cells = module.cells();
  const std::size_t num_sets = fault_sets.size();
  const std::size_t num_batches = (num_sets + per_batch - 1) / per_batch;
  std::vector<backends::FaultBatch> planned(num_batches);
  std::vector<std::vector<netlist::NetId>> feeds(num_batches);
  std::vector<char> observed(num_batches, 0);
  const auto plan_batch = [&](std::size_t b) {
    PML_OBS_SPAN("fault.plan");
    if (cancel != nullptr) cancel->check("fault.plan");
    backends::FaultBatch& batch = planned[b];
    batch.begin =
        b * (num_sets / num_batches) + std::min(b, num_sets % num_batches);
    batch.count = num_sets / num_batches + (b < num_sets % num_batches ? 1 : 0);
    NetMarks cone(module.num_nets());
    std::vector<netlist::NetId> stack;
    for (std::size_t v = batch.begin; v < batch.begin + batch.count; ++v) {
      for (const StuckAtFault& f : fault_sets[v].faults) {
        if (cone.mark(f.net)) stack.push_back(f.net);
      }
    }
    while (!stack.empty()) {
      const netlist::NetId net = stack.back();
      stack.pop_back();
      for (const std::uint32_t c : lv.fanout[net]) {
        if (cone.mark(cells[c].out)) stack.push_back(cells[c].out);
      }
    }
    if (std::none_of(class_port.nets.begin(), class_port.nets.end(),
                     [&](netlist::NetId net) { return cone.marked(net); })) {
      return;
    }
    observed[b] = 1;
    collect_cells(module, lv, cone, batch.comb, batch.dffs);
    std::vector<netlist::NetId>& feed = feeds[b];
    const auto feed_net = [&](netlist::NetId net) {
      if (!cone.marked(net) && drivers[net] >= 0) feed.push_back(net);
    };
    for (const std::uint32_t c : batch.comb) {
      for (int pin = 0; pin < netlist::cell_num_inputs(cells[c].type); ++pin) {
        feed_net(cells[c].in[pin]);
      }
    }
    for (const std::uint32_t c : batch.dffs) feed_net(cells[c].in[0]);
    for (const netlist::NetId net : class_port.nets) feed_net(net);
    std::sort(feed.begin(), feed.end());
    feed.erase(std::unique(feed.begin(), feed.end()), feed.end());
  };
  // As many slots as the campaign's workers, each claiming batches.
  util::TaskPool& pool = util::TaskPool::instance();
  std::atomic<std::size_t> next{0};
  pool.run_group(std::min(num_threads != 0 ? num_threads : pool.size(),
                          num_batches),
                 "fault.plan", [&](std::size_t /*slot*/) {
                   for (std::size_t b = next++; b < num_batches; b = next++) {
                     plan_batch(b);
                   }
                 });

  CampaignPlan plan;
  std::vector<char> traced(module.num_nets(), 0);
  for (std::size_t b = 0; b < num_batches; ++b) {
    if (observed[b] == 0) {
      plan.unobserved.emplace_back(planned[b].begin, planned[b].count);
    }
    for (const netlist::NetId net : feeds[b]) traced[net] = 1;
  }
  // Trace columns follow net order, so each batch's sorted feed maps to
  // ascending columns: group them into (word, mask) pairs.
  std::vector<std::uint32_t> column(module.num_nets(), 0);
  for (netlist::NetId net = 0; net < module.num_nets(); ++net) {
    if (traced[net] == 0) continue;
    column[net] = static_cast<std::uint32_t>(plan.traced.size());
    plan.traced.push_back(net);
  }
  for (std::size_t b = 0; b < num_batches; ++b) {
    if (observed[b] == 0) continue;
    auto& words = planned[b].feed;
    for (const netlist::NetId net : feeds[b]) {
      const std::uint32_t col = column[net];
      if (words.empty() || words.back().first != col / 64) {
        words.emplace_back(col / 64, 0);
      }
      words.back().second |= std::uint64_t{1} << (col % 64);
    }
    plan.batches.push_back(std::move(planned[b]));
  }
  return plan;
}

/// Transpose a 64 x 64 bit matrix in place: bit c of a[r] becomes bit r of
/// a[c] (swap the off-diagonal halves, then quarters, ... of every block).
void transpose64(std::uint64_t* a) {
  std::uint64_t mask = 0x00000000FFFFFFFFull;
  for (unsigned j = 32; j != 0; j >>= 1, mask ^= mask << j) {
    for (unsigned k = 0; k < 64; k = (k + j + 1) & ~j) {
      const std::uint64_t t = ((a[k] >> j) ^ a[k + j]) & mask;
      a[k] ^= t << j;
      a[k + j] ^= t;
    }
  }
}

/// Replay the fault-free circuit under the campaign protocol, recording
/// trace.nets after every settle.  Evaluates only their fan-in closure,
/// plus the class port's when `count_golden` — then the replay alone
/// counts the golden misclassifications, which it returns.
///
/// The samples run in parallel, one per lane of a u64 word.  With `step`
/// samples per lane, lane l replays samples l*step .. l*step + step in
/// phases 0 .. step from power-on and records all but its first: that
/// sample, the last of lane l - 1, is its warm-up.  Lane 0 records its
/// first sample too, so it is exactly the serial protocol, and the trace
/// rows of lane l are the serial ones if lane l leaves its warm-up in the
/// state lane l - 1 ends in.  That is checked over the closure's DFF Qs;
/// if every hand-off matches, the whole trace is serial by induction on
/// l.  If one differs (state that carries across inferences), the replay
/// runs again with step = n - 1: one lane holding the whole stream, the
/// serial protocol itself.
std::size_t record_golden_trace(const backends::FaultJob& job,
                                const std::vector<std::int32_t>& drivers,
                                bool count_golden,
                                backends::GoldenTrace& trace) {
  PML_OBS_SPAN("fault.golden");
  const netlist::Module& module = *job.module;
  const auto& cells = module.cells();
  NetMarks closure(module.num_nets());
  std::vector<netlist::NetId> stack;
  const auto reach = [&](netlist::NetId net) {
    if (drivers[net] >= 0 && closure.mark(net)) stack.push_back(net);
  };
  for (const netlist::NetId net : trace.nets) reach(net);
  if (count_golden) {
    for (const netlist::NetId net : job.class_port->nets) reach(net);
  }
  while (!stack.empty()) {
    const netlist::Cell& c =
        cells[static_cast<std::size_t>(drivers[stack.back()])];
    stack.pop_back();
    for (int pin = 0; pin < netlist::cell_num_inputs(c.type); ++pin) {
      reach(c.in[pin]);
    }
  }
  std::vector<std::uint32_t> comb, dffs;
  collect_cells(module, *job.lv, closure, comb, dffs);

  const CircuitWorkload& workload = *job.workload;
  const std::vector<const netlist::Port*>& ports = *job.ports;
  const std::size_t n = job.num_samples;
  const std::size_t settles = job.settles_per_sample;
  constexpr std::size_t kNoRow = ~std::size_t{0};
  trace.words = (trace.nets.size() + 63) / 64;
  trace.rows.assign((1 + n * settles) * trace.words, 0);
  sim::BatchSimulator replay(module, job.lv);
  replay.restrict_to(comb, dffs);
  std::vector<std::uint64_t> warm(dffs.size());
  std::uint64_t block[64];
  std::uint64_t lane_values[64];
  // Write each lane's values of trace.nets into trace row row_of(lane),
  // 64 columns at a time: one transposed block holds 64 lanes' words.
  const auto record = [&](std::size_t lanes, auto&& row_of) {
    for (std::size_t w = 0; w < trace.words; ++w) {
      const std::size_t cols =
          std::min<std::size_t>(64, trace.nets.size() - 64 * w);
      for (std::size_t c = 0; c < 64; ++c) {
        block[c] = c < cols ? replay.net_lanes(trace.nets[64 * w + c]) : 0;
      }
      transpose64(block);
      for (std::size_t lane = 0; lane < lanes; ++lane) {
        const std::size_t row = row_of(lane);
        if (row != kNoRow) trace.rows[row * trace.words + w] = block[lane];
      }
    }
  };

  std::size_t golden = 0;
  std::size_t fallbacks = 0;
  std::size_t step = std::max<std::size_t>(1, (n + 62) / 64);  // lanes <= 64
  for (;;) {
    const std::size_t lanes = n == 1 ? 1 : (n - 2) / step + 1;
    const std::size_t phases = std::min(step + 1, n);
    const auto sample = [&](std::size_t lane, std::size_t p) {
      return std::min(lane * step + p, n - 1);
    };
    const auto records = [&](std::size_t lane, std::size_t p) {
      return (lane == 0 || p > 0) && lane * step + p < n;
    };
    golden = 0;
    replay.power_on();
    replay.propagate();
    record(1, [](std::size_t) { return std::size_t{0}; });
    for (std::size_t p = 0; p < phases; ++p) {
      if (job.cancel != nullptr) job.cancel->check("fault.golden");
      for (std::size_t j = 0; j < ports.size(); ++j) {
        for (std::size_t lane = 0; lane < lanes; ++lane) {
          lane_values[lane] = static_cast<std::uint64_t>(
              workload.feature_codes[sample(lane, p)][j]);
        }
        replay.set_port(*ports[j], lane_values, lanes);
      }
      for (std::size_t s = 0; s < settles; ++s) {
        if (s > 0) replay.clock();
        replay.propagate();
        record(lanes, [&](std::size_t lane) {
          return records(lane, p) ? 1 + sample(lane, p) * settles + s : kNoRow;
        });
      }
      if (count_golden) {
        for (std::size_t lane = 0; lane < lanes; ++lane) {
          if (!records(lane, p)) continue;
          const int expected = workload.expected_class[sample(lane, p)];
          golden += (backends::class_miss_lanes(replay, *job.class_port, 0,
                                                expected) >>
                     lane) &
                    1u;
        }
      }
      if (p == 0) {
        for (std::size_t i = 0; i < dffs.size(); ++i) {
          warm[i] = replay.net_lanes(cells[dffs[i]].out);
        }
      }
    }
    // Lane l's state after its warm-up against lane l - 1's at the end.
    const std::uint64_t handoffs =
        (lanes == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << lanes) - 1) &
        ~std::uint64_t{1};
    bool exact = true;
    for (std::size_t i = 0; i < dffs.size(); ++i) {
      const std::uint64_t last = replay.net_lanes(cells[dffs[i]].out);
      if (((warm[i] ^ (last << 1)) & handoffs) != 0) exact = false;
    }
    if (exact) break;
    ++fallbacks;
    step = n - 1;
  }
  PML_OBS_COUNT("fault.golden_fallbacks", fallbacks);
  PML_OBS_COUNT("sim.batch_fault.lane_words", replay.take_lane_words());
  return golden;
}

}  // namespace

FaultCampaignResult run_fault_campaign(const netlist::Module& module,
                                       int cycles_per_inference,
                                       const CircuitWorkload& workload,
                                       const std::vector<FaultSet>& fault_sets,
                                       const FaultCampaignOptions& options) {
  if (workload.feature_codes.empty() ||
      workload.feature_codes.size() != workload.expected_class.size()) {
    throw std::invalid_argument("run_fault_campaign: bad workload");
  }
  const std::size_t num_features = workload.feature_codes[0].size();
  for (const auto& row : workload.feature_codes) {
    if (row.size() != num_features) {
      throw std::invalid_argument("run_fault_campaign: ragged feature_codes");
    }
  }
  if (fault_sets.empty()) {
    throw std::invalid_argument("run_fault_campaign: no fault sets");
  }
  const std::size_t n =
      std::min(options.max_samples, workload.feature_codes.size());
  if (n == 0) {
    throw std::invalid_argument("run_fault_campaign: zero samples");
  }
  for (const FaultSet& set : fault_sets) {
    for (const StuckAtFault& f : set.faults) {
      if (f.net >= module.num_nets()) {
        throw std::out_of_range("run_fault_campaign: fault on a bad net");
      }
      if (f.net == netlist::kConst0 || f.net == netlist::kConst1) {
        throw std::invalid_argument(
            "run_fault_campaign: cannot force a constant net");
      }
    }
  }
  const auto ports = feature_ports(module, num_features);
  const netlist::Port* class_port = module.find_output("class");
  if (class_port == nullptr) {
    throw std::invalid_argument("run_fault_campaign: missing 'class' output");
  }
  const std::shared_ptr<const sim::Levelization> lv =
      options.levelization != nullptr ? options.levelization
                                      : sim::levelize_shared(module);
  // How many variants ride per pass (kLanes - 1) belongs to the selected
  // SIMD backend; per-variant counts are independent of the packing.
  const backends::Kernels& k =
      backends::kernels_for(sim::resolve_backend(options.backend));

  backends::FaultJob job;
  job.module = &module;
  job.lv = lv;
  job.ports = &ports;
  job.sequential = !lv->dffs.empty();
  job.cycles_per_inference = cycles_per_inference;
  job.cancel = options.cancel;
  job.workload = &workload;
  job.class_port = class_port;
  job.fault_sets = &fault_sets;
  job.num_samples = n;
  job.settles_per_sample =
      !job.sequential ? 1
      : cycles_per_inference > 0
          ? static_cast<std::size_t>(cycles_per_inference) + 1
          : 0;
  job.num_threads = options.num_threads;

  const std::vector<std::int32_t> drivers = module.driver_map();
  CampaignPlan plan =
      plan_campaign(module, *lv, drivers, *class_port, fault_sets, k.lanes - 1,
                    options.num_threads, options.cancel);
  PML_OBS_COUNT("fault.batches",
                plan.batches.size() + plan.unobserved.size());
  PML_OBS_COUNT("fault.batches_unobserved", plan.unobserved.size());
  PML_OBS_COUNT("fault.variants", fault_sets.size());

  backends::GoldenTrace trace;
  trace.nets = std::move(plan.traced);
  std::size_t golden =
      record_golden_trace(job, drivers, plan.batches.empty(), trace);

  FaultCampaignResult result;
  result.variants.assign(fault_sets.size(), FaultVariantResult{0, n});
  result.golden.samples = n;
  if (!plan.batches.empty()) {
    // Longest cone first, so the last batches claimed are the short ones.
    std::sort(plan.batches.begin(), plan.batches.end(),
              [](const backends::FaultBatch& a, const backends::FaultBatch& b) {
                return a.comb.size() != b.comb.size()
                           ? a.comb.size() > b.comb.size()
                           : a.begin < b.begin;
              });
    std::vector<std::size_t> golden_counts(plan.batches.size(), 0);
    job.batches = &plan.batches;
    job.trace = &trace;
    job.golden_counts = golden_counts.data();
    k.fault(job, result);
    // Lane 0 of every simulated batch is the same fault-free run.
    golden = golden_counts[0];
    if (std::any_of(golden_counts.begin(), golden_counts.end(),
                    [&](std::size_t g) { return g != golden; })) {
      throw std::logic_error(
          "run_fault_campaign: golden lanes disagree between batches");
    }
  }
  result.golden.misclassified = golden;
  for (const auto& [begin, count] : plan.unobserved) {
    for (std::size_t v = begin; v < begin + count; ++v) {
      result.variants[v].misclassified = golden;
    }
  }
  return result;
}

std::vector<FaultCurvePoint> accuracy_vs_fault_count(
    const std::vector<FaultSet>& fault_sets, const FaultCampaignResult& result,
    double broken_threshold) {
  if (fault_sets.size() != result.variants.size()) {
    throw std::invalid_argument(
        "accuracy_vs_fault_count: fault_sets/result size mismatch");
  }
  // mean_accuracy holds a running sum until the division below; the
  // golden reference seeds the 0-fault bucket, where any empty fault sets
  // (legal: a variant with no faults is another golden replica) also land.
  std::map<std::size_t, FaultCurvePoint> by_count;
  FaultCurvePoint& zero = by_count[0];
  zero.variants = 1;
  zero.mean_accuracy = result.golden.accuracy();
  zero.broken = result.golden.accuracy() <= broken_threshold ? 1 : 0;
  for (std::size_t i = 0; i < fault_sets.size(); ++i) {
    FaultCurvePoint& p = by_count[fault_sets[i].faults.size()];
    const double acc = result.variants[i].accuracy();
    p.mean_accuracy += acc;
    ++p.variants;
    p.broken += acc <= broken_threshold ? 1 : 0;
  }
  std::vector<FaultCurvePoint> curve;
  curve.reserve(by_count.size());
  for (auto& [count, point] : by_count) {
    point.num_faults = count;
    point.mean_accuracy /= static_cast<double>(point.variants);
    curve.push_back(point);
  }
  return curve;
}

}  // namespace pml::core
