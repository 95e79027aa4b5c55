#include "pml/core/activity.hpp"

#include <algorithm>
#include <stdexcept>

#include "backends/kernels.hpp"
#include "pml/core/eval_context.hpp"
#include "pml/sim/backend.hpp"
#include "pml/util/task_pool.hpp"

namespace pml::core {

sim::ActivityStats collect_activity(const netlist::Module& module,
                                    const cells::CellLibrary& lib,
                                    int cycles_per_inference,
                                    const CircuitWorkload& workload,
                                    std::size_t num_samples,
                                    const ActivityOptions& options) {
  sim::ActivityStats merged;
  collect_activity_into(merged, module, lib, cycles_per_inference, workload,
                        num_samples, options);
  return merged;
}

void collect_activity_into(sim::ActivityStats& out,
                           const netlist::Module& module,
                           const cells::CellLibrary& lib,
                           int cycles_per_inference,
                           const CircuitWorkload& workload,
                           std::size_t num_samples,
                           const ActivityOptions& options) {
  if (workload.feature_codes.empty()) {
    throw std::invalid_argument("collect_activity: empty workload");
  }
  const std::size_t num_features = workload.feature_codes[0].size();
  for (const auto& row : workload.feature_codes) {
    if (row.size() != num_features) {
      throw std::invalid_argument("collect_activity: ragged feature_codes");
    }
  }
  const std::size_t n = std::min(num_samples, workload.feature_codes.size());
  if (n == 0) {
    throw std::invalid_argument("collect_activity: zero samples");
  }
  // Feature ports resolve into the context's pooled vector when pooling
  // (verify_workload ran first and resolved the same ports, so the pooled
  // refill is allocation-free).
  std::vector<const netlist::Port*> local_ports;
  std::vector<const netlist::Port*>& ports =
      options.context != nullptr ? options.context->ports : local_ports;
  feature_ports_into(ports, module, num_features);
  const std::shared_ptr<const sim::Levelization> lv =
      options.levelization != nullptr ? options.levelization
                                      : sim::levelize_shared(module);

  backends::ActivityJob job;
  job.module = &module;
  job.lv = lv;
  job.ports = &ports;
  job.sequential = !lv->dffs.empty();
  job.cycles_per_inference = cycles_per_inference;
  job.cancel = options.cancel;
  job.lib = &lib;
  job.time_quantum_ms = options.time_quantum_ms;
  job.samples = &workload.feature_codes;
  job.num_samples = n;
  job.num_threads = options.num_threads != 0
                        ? options.num_threads
                        : util::TaskPool::instance().size();
  job.context = options.context;

  // Predecessor warm-up makes the counts independent of the chunking, so
  // the chunk is free: fill the lanes first (one sample per lane-stream
  // while n fits one batch word), and cut longer chunks only as needed to
  // keep the batch count within the worker count.  kAuto runs on u64 when
  // its 64 lanes hold all n streams.
  const backends::Kernels& k = backends::kernels_for(
      sim::resolve_backend_for(options.backend, n));
  const std::size_t per_word = k.lanes * job.num_threads;
  job.chunk_samples = std::max<std::size_t>(1, (n + per_word - 1) / per_word);
  k.activity(job, out);
}

}  // namespace pml::core
