// End-to-end design-run benchmark runner.
//
// Runs one workload — a whole design run, not a layer microbenchmark — and
// prints its metrics.  perfbench/run.py builds this binary and is the entry
// point; README.md documents the workloads and every metric.
//
//   perfbench_runner --workload <table1|svc_sweep|fault_yield> --seed <n>
//                    --seconds <s> --trace <0|1> [--trace-file <path>]
//                    [--smoke]
//
// --trace 0: alternate setups and timed passes until --seconds have
// elapsed, then set up again until there are enough setups for a median;
// tracing off.  Prints the end-to-end metrics.
// --trace 1: set up once, run one untraced reference pass and one pass
// under an obs::ScopedTracer, and print the per-layer metrics.  Layers are
// measured from outside: self times come from the spans the library already
// emits (plus bench spans around each top-level call, named "bench.*"),
// counts from obs::snapshot_metrics deltas, and the setup's training and
// generation from direct calls.
//
// Every pass digests its results (FNV-1a); all passes of one invocation
// must agree.  A digest mismatch, an unverified design, a non-kOk service
// job or an exception counts as a failed operation and makes the exit code
// non-zero.
//
// Output: human-readable lines on stderr; on stdout one info line
// ({"info": {...}}) and, last, the result line
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "pml/arch/sequential_svm.hpp"
#include "pml/cells/library.hpp"
#include "pml/core/fault_campaign.hpp"
#include "pml/core/flow.hpp"
#include "pml/core/table1.hpp"
#include "pml/core/verify.hpp"
#include "pml/ml/multiclass.hpp"
#include "pml/ml/scaler.hpp"
#include "pml/ml/synthetic_datasets.hpp"
#include "pml/obs/json.hpp"
#include "pml/obs/manifest.hpp"
#include "pml/obs/metrics.hpp"
#include "pml/obs/trace.hpp"
#include "pml/quant/search.hpp"
#include "pml/quant/svm_quant.hpp"
#include "pml/sim/backend.hpp"
#include "pml/svc/sweep_service.hpp"
#include "pml/util/task_pool.hpp"

using namespace pml;

namespace {

// Power-replay samples per evaluation: bench_table1's --quick setting.
// Every dataset's test split is larger, so each evaluation replays exactly
// this many samples.
constexpr std::size_t kPowerSamples = 24;
// Least number of setups per --trace 0 run; setup_s is their median.
constexpr std::size_t kSetupRepeats = 5;
// Training seed of the svc_sweep / fault_yield setup.  It is fixed, like the
// data seed, so every workload seed builds the same designs and setup_s
// measures the same work: SMO run time varies with the seed.
constexpr std::uint64_t kSetupTrainSeed = core::Table1Options{}.train_seed;
// svc_sweep: closed-loop clients, service worker seats, revisit share.
constexpr std::size_t kSvcClients = 2;
constexpr std::size_t kSvcSeats = 2;
constexpr std::size_t kRevisitPercent = 25;
// fault_yield: samples replayed per fault variant, and the seeded
// multi-fault campaigns (sets of kMultiFaults stuck-at sites).
constexpr std::size_t kFaultSamples = 48;
constexpr std::size_t kMultiFaults = 3;
constexpr std::size_t kMultiSets = 1024;
// Untraced share of a traced pass above which the runner prints a note.
constexpr double kUntracedNote = 0.05;

const std::vector<std::string> kFlows = {"none", "area", "energy",
                                         "balanced"};

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Wall time of `fn()` in seconds.
template <typename Fn>
double timed(Fn&& fn) {
  const auto t0 = Clock::now();
  fn();
  return seconds_since(t0);
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// splitmix64 of seed ^ salt: independent, platform-stable streams (data,
/// training, revisit order, fault sets) from one workload seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed ^ salt;
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Linear-interpolated quantile (q in [0, 1]) of a non-empty sample.
double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

std::string hex64(std::uint64_t v) {
  std::ostringstream os;
  os << std::hex << std::setw(16) << std::setfill('0') << v;
  return os.str();
}

// --- result digest ----------------------------------------------------------

void digest_stats(obs::Fnv1a& h, const netlist::ModuleStats& s) {
  h.update_u64(s.num_cells).update_u64(s.num_nets).update_u64(s.num_dffs);
  for (const std::size_t c : s.counts_by_type) h.update_u64(c);
  for (const auto& group : s.counts_by_group) {
    h.update_u64(group.size());
    for (const std::size_t c : group) h.update_u64(c);
  }
}

/// Every HardwareReport field except the wall-clock opt_seconds and
/// opt_pass_times.
void digest_report(obs::Fnv1a& h, const core::HardwareReport& r) {
  h.update(r.dataset).update(r.model).update(r.opt_flow);
  for (const double v : {r.accuracy, r.area_cm2, r.power_mw, r.frequency_hz,
                         r.latency_ms, r.energy_mj, r.static_mw, r.dynamic_mw,
                         r.dynamic_glitch_mw}) {
    h.update_f64(v);
  }
  h.update_u64(r.functional_transitions).update_u64(r.glitch_transitions);
  h.update_u64(static_cast<std::uint64_t>(r.logic_depth));
  h.update_u64(r.num_cells).update_u64(r.num_dffs);
  h.update_u64(static_cast<std::uint64_t>(r.cycles_per_inference));
  for (const auto& g : r.groups) {
    h.update(g.name).update_u64(g.cells);
    h.update_f64(g.area_cm2).update_f64(g.static_mw);
    h.update_f64(g.dynamic_mw).update_f64(g.glitch_mw);
  }
  digest_stats(h, r.pre_opt_stats);
  digest_stats(h, r.post_opt_stats);
  h.update_u64(r.opt_cost_probes);
  h.update_u64(r.verified ? 1 : 0);
  h.update_u64(r.verified_samples).update_u64(r.verified_mismatches);
}

void digest_campaign(obs::Fnv1a& h, const core::FaultCampaignResult& r) {
  h.update_u64(r.golden.misclassified).update_u64(r.golden.samples);
  h.update_u64(r.variants.size());
  for (const auto& v : r.variants) {
    h.update_u64(v.misclassified).update_u64(v.samples);
  }
}

// --- workload inputs --------------------------------------------------------

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string trace_file;

  /// Seeds table1's training (SMO order, tuning and search validation
  /// splits), which runs in its timed pass; the revisit order and fault
  /// sets take their own streams of `seed`.
  [[nodiscard]] std::uint64_t train_seed() const {
    return derive_seed(seed, 0x7a1e) % 1000003;
  }
  /// Smoke runs use one small dataset; real runs all five.
  [[nodiscard]] std::vector<ml::UciProfile> profiles() const {
    if (smoke) return {ml::UciProfile::kRedWine};
    std::vector<ml::UciProfile> all;
    for (const auto& info : ml::all_profiles()) all.push_back(info.profile);
    return all;
  }
  [[nodiscard]] std::vector<int> input_bits() const {
    return smoke ? std::vector<int>{3, 4} : std::vector<int>{3, 4, 5};
  }
  [[nodiscard]] std::vector<int> weight_bits() const {
    return smoke ? std::vector<int>{4, 5} : std::vector<int>{4, 5, 6};
  }
};

struct Prepared {
  ml::Dataset train;
  ml::Dataset test;
};

/// Synthesize, split 80/20 and min-max normalize, exactly as run_table1
/// does for its own inputs.  Synthesis always uses the library's default
/// data seed: a different synthetic dataset changes the design mix, which
/// moved job_p50_ms by up to 18% between workload seeds.
Prepared prepare(ml::UciProfile profile) {
  const ml::Dataset raw = ml::make_uci_like(profile, ml::kDefaultDataSeed);
  const ml::Split split =
      ml::stratified_split(raw, 0.8, ml::kDefaultDataSeed ^ 0x5eed);
  ml::MinMaxScaler scaler;
  scaler.fit(split.train);
  return {scaler.transform(split.train), scaler.transform(split.test)};
}

/// Work of the ml / quant / arch layers, timed by direct calls.
struct DirectLayers {
  double ml_train_s = 0.0;
  std::uint64_t ml_train_calls = 0;
  double quant_search_s = 0.0;
  std::uint64_t quant_candidates = 0;
  double arch_generate_s = 0.0;
  std::uint64_t arch_cells_raw = 0;
};

/// One svc_sweep / fault_yield design point: a raw sequential SVM.
struct Design {
  std::string label;
  std::shared_ptr<const netlist::Module> module;
  int cycles = 1;
  std::shared_ptr<const core::CircuitWorkload> workload;
  std::vector<core::FaultSet> single_faults;
  std::vector<core::FaultSet> multi_faults;
};

/// svc_sweep / fault_yield setup: per dataset, one fixed-C OvR model, its
/// minimum-precision search, then a (input, weight) precision grid of raw
/// sequential SVMs.  Only the sampled fault sets depend on the seed.
std::vector<Design> build_designs(const Config& cfg, bool with_faults,
                                  DirectLayers& layers) {
  std::vector<Design> designs;
  for (const ml::UciProfile profile : cfg.profiles()) {
    const Prepared data = prepare(profile);
    ml::MulticlassTrainOptions topts;
    topts.base.seed = kSetupTrainSeed;
    ml::MulticlassSvm model;
    layers.ml_train_s +=
        timed([&] { model = ml::train_one_vs_rest(data.train, topts); });
    ++layers.ml_train_calls;

    const ml::Split val =
        ml::stratified_split(data.train, 0.75, kSetupTrainSeed ^ 0xBEEF);
    const std::uint64_t cand0 =
        obs::snapshot_metrics().counter_value("quant.candidates");
    layers.quant_search_s += timed([&] {
      const quant::PrecisionSearchResult r =
          quant::search_min_precision(model, val.test, {});
      if (r.input_bits <= 0 || r.weight_bits <= 0) {
        throw std::runtime_error("precision search found no precision");
      }
    });
    layers.quant_candidates +=
        obs::snapshot_metrics().counter_value("quant.candidates") - cand0;

    for (const int bx : cfg.input_bits()) {
      for (const int bw : cfg.weight_bits()) {
        const quant::QuantizedSvm q = quant::quantize_svm(model, bx, bw);
        Design d;
        d.label = ml::profile_info(profile).name + " x" +
                  std::to_string(bx) + "w" + std::to_string(bw);
        d.workload = std::make_shared<const core::CircuitWorkload>(
            core::make_svm_workload(q, data.test));
        arch::SequentialSvmCircuit c;
        layers.arch_generate_s += timed([&] {
          c = arch::build_sequential_svm(q, opt::OptOptions{.enabled = false});
        });
        layers.arch_cells_raw += c.module.stats().num_cells;
        d.cycles = c.cycles_per_inference;
        d.module = std::make_shared<const netlist::Module>(std::move(c.module));
        if (with_faults) {
          d.single_faults = core::enumerate_single_faults(*d.module);
          d.multi_faults = core::sample_fault_sets(
              *d.module, kMultiFaults, cfg.smoke ? 64 : kMultiSets,
              derive_seed(cfg.seed, 0xfa17 + designs.size()));
        }
        designs.push_back(std::move(d));
      }
    }
  }
  return designs;
}

// --- passes -----------------------------------------------------------------

/// What one timed pass produced.
struct PassResult {
  double run_s = 0.0;
  std::vector<double> job_ms;
  std::uint64_t digest = 0;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  /// Freshly evaluated reports (cache hits excluded), for the activity /
  /// verify sample and glitch counts.
  std::vector<core::HardwareReport> evaluated;
  std::uint64_t verify_samples = 0;  ///< direct verify calls (fault_yield)
  svc::SweepStats svc;
  obs::Json info = obs::Json::object();
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Everything before the first timed pass; returns its direct layer
  /// timings.
  virtual DirectLayers setup() = 0;
  virtual PassResult pass() = 0;
};

// table1: core::run_table1 over every dataset x {SVM[2], SVM[3], MLP[4],
// Ours}, one dataset per call, by one closed-loop caller.  run_table1
// synthesizes and trains itself, so everything but pool start is in the
// timed pass.
class Table1Workload final : public Workload {
 public:
  Table1Workload(const Config& cfg, const cells::CellLibrary& lib)
      : cfg_(cfg), lib_(lib) {}

  DirectLayers setup() override { return {}; }

  PassResult pass() override {
    PassResult out;
    obs::Fnv1a h;
    double gain_num = 0.0, gain_den = 0.0;
    const auto t0 = Clock::now();
    for (const ml::UciProfile p : cfg_.profiles()) {
      core::Table1Options o;
      o.train_seed = cfg_.train_seed();
      o.profiles = {p};
      o.power_samples = kPowerSamples;
      ++out.attempted;
      try {
        obs::ScopedSpan span("bench.table1.dataset");
        core::Table1Result r;
        out.job_ms.push_back(
            1e3 * timed([&] { r = core::run_table1(lib_, o); }));
        bool ok = r.rows.size() == 4;
        for (const auto& row : r.rows) {
          ok = ok && row.verified;
          digest_report(h, row);
          out.evaluated.push_back(row);
          (row.model == "Ours" ? gain_den : gain_num) += row.energy_mj;
        }
        if (!ok) ++out.failed;
      } catch (const std::exception& e) {
        std::cerr << "table1 " << ml::profile_info(p).name << ": " << e.what()
                  << "\n";
        ++out.failed;
      }
    }
    out.run_s = seconds_since(t0);
    out.digest = h.digest();
    out.info.set("energy_gain_vs_baselines",
                 gain_den > 0 ? gain_num / (3.0 * gain_den) : 0.0);
    return out;
  }

 private:
  const Config& cfg_;
  const cells::CellLibrary& lib_;
};

// svc_sweep: every design x flow through one svc::SweepService, then a
// seeded revisit of a quarter of them, by closed-loop clients.
class SvcSweepWorkload final : public Workload {
 public:
  SvcSweepWorkload(const Config& cfg, const cells::CellLibrary& lib)
      : cfg_(cfg), lib_(lib) {}

  DirectLayers setup() override {
    DirectLayers layers;
    designs_ = build_designs(cfg_, false, layers);
    // Job list: every (design, flow) once, then a seeded revisit of
    // kRevisitPercent of them (Fisher-Yates on splitmix64).
    jobs_.clear();
    for (std::size_t d = 0; d < designs_.size(); ++d) {
      for (std::size_t f = 0; f < kFlows.size(); ++f) jobs_.push_back({d, f});
    }
    const std::size_t unique = jobs_.size();
    std::vector<std::size_t> order(unique);
    for (std::size_t i = 0; i < unique; ++i) order[i] = i;
    std::uint64_t state = derive_seed(cfg_.seed, 0x4e715);
    for (std::size_t i = unique - 1; i > 0; --i) {
      state = derive_seed(state, i);
      std::swap(order[i], order[state % (i + 1)]);
    }
    first_of_.assign(unique, 0);
    for (std::size_t i = 0; i < unique; ++i) first_of_[i] = i;
    for (std::size_t i = 0; i < unique * kRevisitPercent / 100; ++i) {
      jobs_.push_back(jobs_[order[i]]);
      first_of_.push_back(order[i]);
    }
    return layers;
  }

  PassResult pass() override {
    PassResult out;
    svc::SweepService::Options so;
    so.num_workers = kSvcSeats;
    svc::SweepService service(lib_, so);
    core::EvaluateOptions eopts;
    eopts.power_samples = kPowerSamples;

    struct JobResult {
      svc::SweepOutcome outcome;
      double ms = 0.0;
      bool threw = false;
    };
    std::vector<JobResult> results(jobs_.size());
    std::atomic<std::size_t> next{0};
    auto client = [&] {
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= jobs_.size()) return;
        const Design& d = designs_[jobs_[i].design];
        svc::SweepRequest req;
        req.module = d.module;
        req.cycles_per_inference = d.cycles;
        req.workload = d.workload;
        req.flow = kFlows[jobs_[i].flow];
        req.options = eopts;
        obs::ScopedSpan span("bench.svc.job");
        const auto t0 = Clock::now();
        try {
          results[i].outcome = service.wait_outcome(service.submit(req));
        } catch (const std::exception& e) {
          std::cerr << "svc job " << i << ": " << e.what() << "\n";
          results[i].threw = true;
        }
        results[i].ms = 1e3 * seconds_since(t0);
      }
    };
    const auto t0 = Clock::now();
    {
      std::vector<std::thread> clients;
      for (std::size_t c = 0; c < kSvcClients; ++c) {
        clients.emplace_back(client);
      }
      for (auto& t : clients) t.join();
    }
    out.run_s = seconds_since(t0);
    out.svc = service.stats();

    obs::Fnv1a h;
    std::vector<std::uint64_t> job_digest(jobs_.size(), 0);
    for (std::size_t i = 0; i < jobs_.size(); ++i) {
      const JobResult& r = results[i];
      ++out.attempted;
      out.job_ms.push_back(r.ms);
      const bool ok = !r.threw && r.outcome.status == svc::JobStatus::kOk &&
                      r.outcome.report.verified;
      obs::Fnv1a jh;
      jh.update_u64(static_cast<std::uint64_t>(r.outcome.status));
      if (ok) digest_report(jh, r.outcome.report);
      job_digest[i] = jh.digest();
      h.update_u64(job_digest[i]);
      // A revisit must return exactly what the first visit computed.
      const bool same = job_digest[i] == job_digest[first_of_[i]];
      if (!ok || !same) ++out.failed;
      if (ok && first_of_[i] == i) out.evaluated.push_back(r.outcome.report);
    }
    out.digest = h.digest();
    double energy = 0.0;
    for (const auto& rep : out.evaluated) energy += rep.energy_mj;
    out.info.set("avg_energy_mj",
                 out.evaluated.empty() ? 0.0 : energy / out.evaluated.size());
    return out;
  }

 private:
  struct Job {
    std::size_t design;
    std::size_t flow;
  };
  const Config& cfg_;
  const cells::CellLibrary& lib_;
  std::vector<Design> designs_;
  std::vector<Job> jobs_;
  std::vector<std::size_t> first_of_;  ///< job index of each job's first visit
};

// fault_yield: per design, bit-exact verification, then an exhaustive
// single stuck-at campaign and a seeded multi-fault campaign.
class FaultYieldWorkload final : public Workload {
 public:
  explicit FaultYieldWorkload(const Config& cfg) : cfg_(cfg) {}

  DirectLayers setup() override {
    DirectLayers layers;
    designs_ = build_designs(cfg_, true, layers);
    return layers;
  }

  PassResult pass() override {
    PassResult out;
    obs::Fnv1a h;
    core::FaultCampaignOptions fopts;
    fopts.max_samples = kFaultSamples;
    std::size_t variants = 0, broken = 0;
    const auto t0 = Clock::now();
    for (const Design& d : designs_) {
      obs::ScopedSpan design_span("bench.fault.design");
      try {
        const core::VerifyResult vr =
            core::verify_workload(*d.module, d.cycles, *d.workload);
        out.verify_samples += vr.samples;
        ++out.attempted;
        if (!vr.ok()) ++out.failed;
      } catch (const std::exception& e) {
        std::cerr << "verify " << d.label << ": " << e.what() << "\n";
        ++out.attempted;
        ++out.failed;
      }
      for (const auto* sets : {&d.single_faults, &d.multi_faults}) {
        ++out.attempted;
        try {
          obs::ScopedSpan span("bench.fault.campaign");
          core::FaultCampaignResult r;
          out.job_ms.push_back(1e3 * timed([&] {
            r = core::run_fault_campaign(*d.module, d.cycles, *d.workload,
                                         *sets, fopts);
          }));
          // The fault-free golden lane must classify like the model.
          if (r.golden.misclassified != 0 ||
              r.variants.size() != sets->size()) {
            ++out.failed;
          }
          digest_campaign(h, r);
          variants += r.variants.size();
          for (const auto& v : r.variants) broken += v.accuracy() <= 0.5;
        } catch (const std::exception& e) {
          std::cerr << "fault campaign " << d.label << ": " << e.what() << "\n";
          ++out.failed;
        }
      }
    }
    out.run_s = seconds_since(t0);
    out.digest = h.digest();
    out.info.set("broken_variant_frac",
                 variants == 0 ? 0.0 : static_cast<double>(broken) / variants);
    return out;
  }

 private:
  const Config& cfg_;
  std::vector<Design> designs_;
};

// --- traced-pass attribution ------------------------------------------------

/// Layer of a span: the fan-out phases of evaluate_circuit map to their
/// worker layer, "opt.cost_probe" is kept apart from the rest of opt, and
/// any other span belongs to its first dotted component.  Bench spans
/// ("bench.*") are not a layer.
std::string layer_of(const std::string& name) {
  if (name == "evaluate" || name == "evaluate.levelize") return "evaluate";
  if (name == "evaluate.optimize") return "opt";
  if (name.rfind("evaluate.", 0) == 0) return name.substr(9);
  if (name == "opt.cost_probe") return name;
  return name.substr(0, name.find('.'));
}

struct Attribution {
  std::map<std::string, double> layer_s;
  double untraced_s = 0.0;
};

/// Split the wall-clock window [t0, t1] between layers.  At each instant,
/// every trace track's innermost open span is its leaf.  Bench spans are no
/// layer, and an "evaluate.<phase>" leaf only waits while a
/// "<phase>.worker" span of its fan-out is open; both are skipped.  The
/// instant is shared evenly by the remaining leaves' layers; with none left
/// it counts as untraced.  The shares sum to t1 - t0.
Attribution attribute(const std::vector<obs::TraceEvent>& events,
                      std::uint64_t t0, std::uint64_t t1) {
  struct Edge {
    std::uint64_t t;
    bool open;
    std::size_t idx;
  };
  std::vector<Edge> edges;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const std::uint64_t b = std::max(events[i].start_ns, t0);
    const std::uint64_t e = std::min(events[i].start_ns + events[i].dur_ns, t1);
    if (b >= e) continue;
    edges.push_back({b, true, i});
    edges.push_back({e, false, i});
  }
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    return a.t != b.t ? a.t < b.t : (!a.open && b.open);
  });

  Attribution out;
  std::map<std::uint32_t, std::vector<std::size_t>> open;  // tid -> spans
  std::uint64_t prev = t0;
  auto charge = [&](std::uint64_t until) {
    if (until <= prev) return;
    const double dt = 1e-9 * static_cast<double>(until - prev);
    prev = until;
    std::vector<const std::string*> leaves;
    for (const auto& [tid, spans] : open) {
      const std::size_t* best = nullptr;
      for (const std::size_t& s : spans) {
        if (best == nullptr || events[s].start_ns > events[*best].start_ns ||
            (events[s].start_ns == events[*best].start_ns &&
             events[s].dur_ns < events[*best].dur_ns)) {
          best = &s;
        }
      }
      leaves.push_back(&events[*best].name);
    }
    std::vector<std::string> busy;
    for (const std::string* n : leaves) {
      if (n->rfind("bench.", 0) == 0) continue;
      if (n->rfind("evaluate.", 0) == 0) {
        const std::string worker = n->substr(9) + ".worker";
        if (std::any_of(leaves.begin(), leaves.end(),
                        [&](const std::string* o) { return *o == worker; })) {
          continue;
        }
      }
      busy.push_back(layer_of(*n));
    }
    if (busy.empty()) {
      out.untraced_s += dt;
      return;
    }
    for (const std::string& layer : busy) {
      out.layer_s[layer] += dt / static_cast<double>(busy.size());
    }
  };
  for (const Edge& e : edges) {
    charge(e.t);
    auto& spans = open[events[e.idx].tid];
    if (e.open) {
      spans.push_back(e.idx);
    } else {
      spans.erase(std::find(spans.begin(), spans.end(), e.idx));
      if (spans.empty()) open.erase(events[e.idx].tid);
    }
  }
  charge(t1);
  return out;
}

// --- output -----------------------------------------------------------------

struct Metrics {
  obs::Json values = obs::Json::object();
  void add(const std::string& name, double value, const char* unit) {
    obs::Json m = obs::Json::object();
    m.set("value", value);
    m.set("unit", unit);
    values.set(name, std::move(m));
    std::cerr << "  " << std::left << std::setw(24) << name << std::right
              << std::setw(16) << std::setprecision(6) << value << " " << unit
              << "\n";
  }
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

int run(const Config& cfg) {
  const cells::CellLibrary lib = cells::CellLibrary::egfet();
  std::unique_ptr<Workload> wl;
  if (cfg.workload == "table1") {
    wl = std::make_unique<Table1Workload>(cfg, lib);
  } else if (cfg.workload == "svc_sweep") {
    wl = std::make_unique<SvcSweepWorkload>(cfg, lib);
  } else if (cfg.workload == "fault_yield") {
    wl = std::make_unique<FaultYieldWorkload>(cfg);
  } else {
    std::cerr << "unknown workload '" << cfg.workload << "'\n";
    return 2;
  }

  const sim::Backend backend = sim::resolve_backend(sim::Backend::kAuto);
  const std::size_t lanes = sim::backend_lanes(backend);
  util::TaskPool& pool = util::TaskPool::instance();

  // Setup: pool start, data, training, generation.  Each call rebuilds the
  // same inputs.
  std::vector<double> setup_times;
  DirectLayers setup_layers;
  auto setup = [&] {
    setup_times.push_back(timed([&] {
      pool.run_group(pool.size(), "perfbench.warmup", [](std::size_t) {});
      setup_layers = wl->setup();
    }));
  };

  std::size_t attempted = 0, failed = 0;
  std::vector<std::uint64_t> digests;
  bool digests_equal = true;
  auto account = [&](const PassResult& p) {
    attempted += p.attempted;
    failed += p.failed;
    if (!digests.empty() && p.digest != digests.front()) {
      std::cerr << "digest mismatch between passes\n";
      digests_equal = false;
      ++failed;
    }
    digests.push_back(p.digest);
    std::cerr << cfg.workload << " pass " << digests.size() << ": "
              << p.run_s << " s, " << p.attempted << " ops, " << p.failed
              << " failed, digest " << hex64(p.digest) << "\n";
  };

  obs::RunManifest manifest = obs::RunManifest::collect();
  manifest.tool = "perfbench";
  manifest.seed = cfg.seed;
  manifest.extra.emplace_back("workload", cfg.workload);
  manifest.extra.emplace_back("backend", sim::backend_name(backend));
  manifest.extra.emplace_back("pool_width", std::to_string(pool.size()));
  manifest.extra.emplace_back("trace", cfg.trace ? "1" : "0");
  manifest.extra.emplace_back("smoke", cfg.smoke ? "1" : "0");
  obs::Json info = obs::Json::object();
  Metrics m;

  if (!cfg.trace) {
    // Setups alternate with passes, so both sample the same stretch of host
    // load; the passes after the first also check that setup is repeatable.
    std::vector<double> run_times, job_ms;
    PassResult last;
    const auto t0 = Clock::now();
    do {
      setup();
      last = wl->pass();
      account(last);
      run_times.push_back(last.run_s);
      job_ms.insert(job_ms.end(), last.job_ms.begin(), last.job_ms.end());
    } while (seconds_since(t0) < cfg.seconds ||
             (cfg.smoke && digests.size() < 2));
    while (setup_times.size() < kSetupRepeats) setup();
    info = std::move(last.info);
    info.set("passes", digests.size());
    info.set("setups", setup_times.size());
    info.set("jobs_timed", job_ms.size());
    if (job_ms.empty()) job_ms.push_back(0.0);
    std::cerr << cfg.workload << " end-to-end metrics:\n";
    m.add("run_s", quantile(run_times, 0.5), "s");
    m.add("setup_s", quantile(setup_times, 0.5), "s");
    m.add("job_p50_ms", quantile(job_ms, 0.5), "ms");
    m.add("job_p90_ms", quantile(job_ms, 0.9), "ms");
    m.add("peak_rss_mb", peak_rss_mb(), "MB");
    m.add("ok_frac", 1.0 - ratio(failed, attempted), "frac");
  } else {
    setup();
    const double cpu0 = cpu_seconds();
    const PassResult ref = wl->pass();
    const double cpu_s = cpu_seconds() - cpu0;
    account(ref);

    const obs::MetricsSnapshot before = obs::snapshot_metrics();
    PassResult traced;
    std::vector<obs::TraceEvent> events;
    std::uint64_t t0 = 0, t1 = 0;
    {
      obs::ScopedTracer tracer;
      t0 = obs::trace_now_ns();
      traced = wl->pass();
      t1 = obs::trace_now_ns();
      events = tracer.tracer().events();
      if (!cfg.trace_file.empty()) {
        std::ofstream os(cfg.trace_file);
        tracer.tracer().write(os, manifest.to_json());
        if (!os) {
          std::cerr << "cannot write trace file " << cfg.trace_file << "\n";
          ++failed;
        }
      }
    }
    const obs::MetricsSnapshot d =
        obs::diff_metrics(before, obs::snapshot_metrics());
    account(traced);
    info = std::move(traced.info);

    const Attribution a = attribute(events, t0, t1);
    auto layer = [&](const char* name) {
      const auto it = a.layer_s.find(name);
      return it == a.layer_s.end() ? 0.0 : it->second;
    };
    for (const auto& [name, s] : a.layer_s) {
      static const std::vector<std::string> kKnown = {
          "evaluate", "opt",   "opt.cost_probe", "verify", "activity",
          "sta",      "power", "quant",          "fault"};
      if (std::find(kKnown.begin(), kKnown.end(), name) == kKnown.end()) {
        std::cerr << "warning: " << s << " s in spans of layer '" << name
                  << "', which no per-layer metric reports\n";
      }
    }
    const double run_s = traced.run_s;
    if (a.untraced_s > kUntracedNote * run_s) {
      std::cerr << "note: " << a.untraced_s << " s of the " << run_s
                << " s traced pass is in no library span\n";
    }
    // Setup work is timed by direct calls; a pass may search precisions
    // itself (table1), which its quant spans and counter show.
    DirectLayers layers = setup_layers;
    layers.quant_search_s += layer("quant");
    layers.quant_candidates += d.counter_value("quant.candidates");
    info.set("trace_events", events.size());
    info.set("traced_run_s", run_s);

    std::uint64_t act_samples = 0, verify_samples = traced.verify_samples;
    std::uint64_t func_tr = 0, glitch_tr = 0;
    for (const auto& rep : traced.evaluated) {
      act_samples += kPowerSamples;
      verify_samples += rep.verified_samples;
      func_tr += rep.functional_transitions;
      glitch_tr += rep.glitch_transitions;
    }
    const double pass_applications = d.counter_value("opt.pass.applications");
    const double verify_batches = d.counter_value("sim.batch.batches");
    const double act_batches = d.counter_value("sim.batch_event.batches");
    const double fault_batches = d.counter_value("fault.batches");
    const double fault_variants = d.counter_value("fault.variants");
    const svc::SweepStats& s = traced.svc;

    std::cerr << cfg.workload << " per-layer metrics:\n";
    m.add("ml.train_s", layers.ml_train_s, "s");
    m.add("ml.train_calls", layers.ml_train_calls, "count");
    m.add("quant.search_s", layers.quant_search_s, "s");
    m.add("quant.candidates", layers.quant_candidates, "count");
    m.add("arch.generate_s", layers.arch_generate_s, "s");
    m.add("arch.cells_raw", layers.arch_cells_raw, "count");
    m.add("opt.run_s", layer("opt") + layer("opt.cost_probe"), "s");
    m.add("opt.pass_applications", pass_applications, "count");
    m.add("opt.accept_ratio",
          ratio(d.counter_value("opt.pass.accepted"), pass_applications),
          "frac");
    m.add("opt.cost_probes", d.counter_value("opt.cost_probes"), "count");
    m.add("opt.cost_probe_s", layer("opt.cost_probe"), "s");
    m.add("activity.s", layer("activity"), "s");
    m.add("activity.samples", act_samples, "count");
    m.add("activity.lane_words", d.counter_value("sim.batch_event.lane_words"),
          "count");
    m.add("activity.lane_fill", ratio(act_samples, act_batches * lanes),
          "frac");
    m.add("activity.glitch_frac",
          ratio(glitch_tr, static_cast<double>(func_tr + glitch_tr)), "frac");
    m.add("verify.s", layer("verify"), "s");
    m.add("verify.samples", verify_samples, "count");
    m.add("verify.lane_fill", ratio(verify_samples, verify_batches * lanes),
          "frac");
    m.add("fault.s", layer("fault"), "s");
    m.add("fault.variants", fault_variants, "count");
    m.add("fault.lane_words", d.counter_value("sim.batch_fault.lane_words"),
          "count");
    m.add("fault.lane_fill",
          ratio(fault_variants, fault_batches * static_cast<double>(lanes - 1)),
          "frac");
    m.add("sta.s", layer("sta"), "s");
    m.add("power.s", layer("power"), "s");
    m.add("evaluate.other_s", layer("evaluate"), "s");
    m.add("svc.hit_rate", s.hit_rate(), "frac");
    m.add("svc.evaluated", s.evaluated, "count");
    m.add("svc.deduped", s.inflight_deduped, "count");
    m.add("svc.failed", s.errors + s.timeouts + s.cancelled + s.shed, "count");
    m.add("pool.tasks", d.counter_value("pool.tasks"), "count");
    m.add("pool.steals", d.counter_value("pool.steals"), "count");
    m.add("pool.parked", d.counter_value("pool.parked"), "count");
    m.add("util.cpu_s", cpu_s, "s");
    m.add("util.cpu_util", ratio(cpu_s, ref.run_s * pool.size()), "frac");
    m.add("obs.trace_overhead", ratio(run_s, ref.run_s) - 1.0, "frac");
    m.add("flow.untraced_s", a.untraced_s, "s");
  }

  info.set("digest", hex64(digests.front()));
  info.set("digests_equal", digests_equal);
  info.set("manifest", manifest.to_json());
  obs::Json info_line = obs::Json::object();
  info_line.set("info", std::move(info));
  std::cout << info_line.dump(0) << "\n";

  obs::Json result = obs::Json::object();
  result.set("correct", failed == 0);
  result.set("attempted", attempted);
  result.set("failed", failed);
  result.set("metrics", std::move(m.values));
  std::cout << result.dump(0) << std::endl;
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      cfg.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      cfg.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      cfg.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      cfg.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--trace-file" && has_value) {
      cfg.trace_file = argv[++i];
    } else if (arg == "--smoke") {
      cfg.smoke = true;
    } else {
      std::cerr << "unknown argument '" << arg << "'\n";
      return 2;
    }
  }
  try {
    return run(cfg);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
