#pragma once
// Lowest-precision search: "post-training, we quantize the SVM weights and
// biases to the lowest precision that can retain acceptable accuracy".
//
// The search sweeps (input_bits, weight_bits) in increasing hardware-cost
// order, evaluates the quantized model on a held-out set, and returns the
// cheapest configuration within `tolerance` of the float accuracy.

#include <cstdint>
#include <vector>

#include "pml/ml/dataset.hpp"
#include "pml/ml/multiclass.hpp"
#include "pml/quant/svm_quant.hpp"

namespace pml::quant {

struct PrecisionCandidate {
  int input_bits = 0;
  int weight_bits = 0;
  double accuracy = 0.0;
};

struct PrecisionSearchResult {
  int input_bits = 0;
  int weight_bits = 0;
  double float_accuracy = 0.0;
  double quantized_accuracy = 0.0;
  /// Every evaluated point, for the precision-sweep experiment.
  std::vector<PrecisionCandidate> sweep;
};

struct PrecisionSearchOptions {
  int min_input_bits = 4;
  int max_input_bits = 6;
  int min_weight_bits = 4;
  int max_weight_bits = 8;
  /// Acceptable accuracy drop vs the float model (absolute, e.g. 0.01).
  double tolerance = 0.005;
  /// Worker threads for candidate evaluation; 0 = the shared
  /// util::TaskPool's width (clamped to the candidate count).  Candidates are evaluated one
  /// num_threads-wide chunk at a time in cost order, so the early exit at
  /// the winner survives and the winner and `sweep` are bit-identical to
  /// the serial search for any thread count (num_threads == 1 IS the
  /// serial search).
  std::size_t num_threads = 0;
};

/// Search on `holdout` (typically a validation slice of the training set).
[[nodiscard]] PrecisionSearchResult search_min_precision(
    const ml::MulticlassSvm& model, const ml::Dataset& holdout,
    const PrecisionSearchOptions& options);

}  // namespace pml::quant
