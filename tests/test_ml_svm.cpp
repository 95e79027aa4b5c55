// Linear SVM training: separability, margins, multiclass wrappers,
// class weighting, tuning, bias calibration, input validation, and the
// serial oracle for the pool-parallel multiclass fits.

#include <gtest/gtest.h>

#include <stdexcept>

#include "pml/ml/linear_svm.hpp"
#include "pml/ml/metrics.hpp"
#include "pml/ml/multiclass.hpp"
#include "pml/ml/rng.hpp"
#include "pml/ml/synthetic_datasets.hpp"
#include "pml/obs/metrics.hpp"
#include "pml/util/task_pool.hpp"

namespace pml::ml {
namespace {

/// Two linearly separable 2-D blobs.
Dataset separable_blobs(std::size_t n, double gap, std::uint64_t seed) {
  Rng rng(seed);
  Dataset d;
  d.name = "sep";
  d.num_features = 2;
  d.num_classes = 2;
  for (std::size_t i = 0; i < n; ++i) {
    const int label = static_cast<int>(i % 2);
    const double cx = label == 0 ? 0.3 : 0.3 + gap;
    d.X.push_back({rng.normal(cx, 0.05), rng.normal(0.5, 0.05)});
    d.y.push_back(label);
  }
  return d;
}

TEST(BinarySvm, SeparatesCleanBlobs) {
  const Dataset d = separable_blobs(200, 0.5, 3);
  std::vector<int> y;
  for (const int label : d.y) y.push_back(label == 0 ? -1 : +1);
  const BinarySvm model = train_binary_svm(d.X, y, SvmTrainOptions{});
  int correct = 0;
  for (std::size_t i = 0; i < d.size(); ++i) {
    const double f = model.decision(d.X[i]);
    if ((f > 0) == (y[i] > 0)) ++correct;
  }
  EXPECT_EQ(correct, 200);
}

TEST(BinarySvm, WeightsPointAcrossTheGap) {
  const Dataset d = separable_blobs(200, 0.5, 4);
  std::vector<int> y;
  for (const int label : d.y) y.push_back(label == 0 ? -1 : +1);
  const BinarySvm model = train_binary_svm(d.X, y, SvmTrainOptions{});
  // Class +1 sits at larger x0: w[0] must dominate and be positive.
  EXPECT_GT(model.w[0], 0.0);
  EXPECT_GT(std::abs(model.w[0]), std::abs(model.w[1]) * 3);
}

TEST(BinarySvm, RegularizationShrinksWeights) {
  const Dataset d = separable_blobs(100, 0.2, 5);
  std::vector<int> y;
  for (const int label : d.y) y.push_back(label == 0 ? -1 : +1);
  SvmTrainOptions strong;
  strong.C = 0.001;
  SvmTrainOptions weak;
  weak.C = 100.0;
  const auto m_strong = train_binary_svm(d.X, y, strong);
  const auto m_weak = train_binary_svm(d.X, y, weak);
  const auto norm = [](const BinarySvm& m) {
    double s = 0;
    for (const double w : m.w) s += w * w;
    return s;
  };
  EXPECT_LT(norm(m_strong), norm(m_weak));
}

TEST(BinarySvm, RejectsBadInputs) {
  EXPECT_THROW((void)train_binary_svm({}, {}, SvmTrainOptions{}),
               std::invalid_argument);
  EXPECT_THROW((void)train_binary_svm({{1.0}}, {1, -1}, SvmTrainOptions{}),
               std::invalid_argument);
  EXPECT_THROW(
      (void)train_binary_svm({{1.0}}, {1}, SvmTrainOptions{}, {1.0, 2.0}),
      std::invalid_argument);
  const BinarySvm m{{1.0, 2.0}, 0.0};
  EXPECT_THROW((void)m.decision({1.0}), std::invalid_argument);
  // A row shorter than X[0] would be read past its end.
  EXPECT_THROW((void)train_binary_svm({{1.0, 2.0}, {1.0}}, {1, -1},
                                      SvmTrainOptions{}),
               std::invalid_argument);
}

TEST(OneVsRest, HighAccuracyOnBlobProfile) {
  const Dataset d = make_uci_like(UciProfile::kDermatology);
  const Split s = stratified_split(d, 0.8, 11);
  MulticlassTrainOptions opts;
  const MulticlassSvm model = train_one_vs_rest(s.train, opts);
  EXPECT_EQ(model.classifiers.size(), 6u);
  EXPECT_GT(accuracy(model.predict_all(s.test.X), s.test.y), 0.9);
}

TEST(OneVsOne, PairCountAndAccuracy) {
  const Dataset d = make_uci_like(UciProfile::kDermatology);
  const Split s = stratified_split(d, 0.8, 11);
  MulticlassTrainOptions opts;
  const MulticlassSvm model = train_one_vs_one(s.train, opts);
  EXPECT_EQ(model.classifiers.size(), 15u);  // 6*5/2
  EXPECT_EQ(model.pairs.size(), 15u);
  EXPECT_EQ(model.pairs[0], (std::pair<int, int>{0, 1}));
  EXPECT_GT(accuracy(model.predict_all(s.test.X), s.test.y), 0.9);
}

TEST(Multiclass, StoredCoefficientsCount) {
  const Dataset d = make_uci_like(UciProfile::kCardio);
  const Split s = stratified_split(d, 0.9, 11);
  MulticlassTrainOptions opts;
  const auto ovr = train_one_vs_rest(s.train, opts);
  const auto ovo = train_one_vs_one(s.train, opts);
  EXPECT_EQ(ovr.stored_coefficients(), 3u * 22u);   // n=3 classifiers
  EXPECT_EQ(ovo.stored_coefficients(), 3u * 22u);   // 3 pairs for n=3
  // OvR stores strictly fewer coefficients for n > 3.
  const Dataset pd = make_uci_like(UciProfile::kPenDigits);
  const Split ps = stratified_split(pd, 0.5, 11);
  const auto pd_ovr = train_one_vs_rest(ps.train, opts);
  const auto pd_ovo = train_one_vs_one(ps.train, opts);
  EXPECT_EQ(pd_ovr.stored_coefficients(), 10u * 17u);
  EXPECT_EQ(pd_ovo.stored_coefficients(), 45u * 17u);
}

TEST(Multiclass, PredictTieGoesToLowestIndex) {
  MulticlassSvm model;
  model.strategy = MulticlassStrategy::kOneVsRest;
  model.num_classes = 3;
  // All-zero classifiers: every decision is the bias.
  model.classifiers = {{{0.0}, 1.0}, {{0.0}, 1.0}, {{0.0}, 0.5}};
  EXPECT_EQ(model.predict({0.0}), 0);
}

TEST(Multiclass, OvoVoteSemantics) {
  MulticlassSvm model;
  model.strategy = MulticlassStrategy::kOneVsOne;
  model.num_classes = 3;
  model.pairs = {{0, 1}, {0, 2}, {1, 2}};
  // decisions: (0,1) -> +1 votes 0; (0,2) -> -1 votes 2; (1,2) -> +1 votes 1.
  // One vote each: tie resolves to class 0.
  model.classifiers = {{{0.0}, 1.0}, {{0.0}, -1.0}, {{0.0}, 1.0}};
  EXPECT_EQ(model.predict({0.0}), 0);
  // Zero decision votes the SECOND class of the pair.
  model.classifiers = {{{0.0}, 0.0}, {{0.0}, -1.0}, {{0.0}, -1.0}};
  // (0,1)->1, (0,2)->2, (1,2)->2: class 2 wins with 2 votes.
  EXPECT_EQ(model.predict({0.0}), 2);
}

TEST(ClassBalancing, HelpsMinorityRecall) {
  // 95/5 imbalance: balanced costs should recover minority predictions.
  Rng rng(17);
  Dataset d;
  d.num_features = 2;
  d.num_classes = 2;
  for (int i = 0; i < 400; ++i) {
    const bool minority = i % 20 == 0;
    d.X.push_back({rng.normal(minority ? 0.62 : 0.4, 0.08),
                   rng.normal(0.5, 0.08)});
    d.y.push_back(minority ? 1 : 0);
  }
  MulticlassTrainOptions plain;
  MulticlassTrainOptions balanced;
  balanced.class_balanced = true;
  const auto m_plain = train_one_vs_rest(d, plain);
  const auto m_bal = train_one_vs_rest(d, balanced);
  const auto cm_plain = confusion_matrix(m_plain.predict_all(d.X), d.y, 2);
  const auto cm_bal = confusion_matrix(m_bal.predict_all(d.X), d.y, 2);
  EXPECT_GE(cm_bal[1][1], cm_plain[1][1])
      << "balanced training should not reduce minority true positives";
}

TEST(TrainTuned, PicksWorkingConfiguration) {
  const Dataset d = make_uci_like(UciProfile::kCardio);
  const Split s = stratified_split(d, 0.8, 21);
  const MulticlassSvm model =
      train_tuned(s.train, MulticlassStrategy::kOneVsRest, {0.1, 1.0, 8.0},
                  /*search_balanced=*/true, 0.25, 7);
  EXPECT_GT(accuracy(model.predict_all(s.test.X), s.test.y), 0.85);
  EXPECT_THROW((void)train_tuned(s.train, MulticlassStrategy::kOneVsRest, {},
                                 true, 0.25, 7),
               std::invalid_argument);
}

TEST(BiasCalibration, NeverHurtsValidationAccuracy) {
  const Dataset d = make_uci_like(UciProfile::kRedWine);
  const Split s = stratified_split(d, 0.8, 31);
  MulticlassTrainOptions opts;
  MulticlassSvm model = train_one_vs_rest(s.train, opts);
  const Split val = stratified_split(s.train, 0.75, 32);
  const double before = accuracy(model.predict_all(val.test.X), val.test.y);
  calibrate_ovr_biases(model, val.test);
  const double after = accuracy(model.predict_all(val.test.X), val.test.y);
  EXPECT_GE(after + 1e-12, before) << "coordinate ascent cannot regress";
}

TEST(BiasCalibration, RejectsOvo) {
  MulticlassSvm model;
  model.strategy = MulticlassStrategy::kOneVsOne;
  Dataset d;
  EXPECT_THROW(calibrate_ovr_biases(model, d), std::invalid_argument);
}

// --- input validation ----------------------------------------------------

/// Three-class toy set, valid as built; each test breaks one invariant.
Dataset tiny_three_class() {
  Dataset d;
  d.num_features = 2;
  d.num_classes = 3;
  for (int i = 0; i < 12; ++i) {
    d.X.push_back({0.1 * i, 1.0 - 0.05 * i});
    d.y.push_back(i % 3);
  }
  return d;
}

/// Every multiclass entry point, plain and class-balanced, must reject `d`
/// with std::invalid_argument.
void expect_all_reject(const Dataset& d) {
  for (const bool balanced : {false, true}) {
    MulticlassTrainOptions opts;
    opts.class_balanced = balanced;
    EXPECT_THROW((void)train_one_vs_rest(d, opts), std::invalid_argument)
        << "balanced=" << balanced;
    EXPECT_THROW((void)train_one_vs_one(d, opts), std::invalid_argument)
        << "balanced=" << balanced;
  }
  EXPECT_THROW((void)train_tuned(d, MulticlassStrategy::kOneVsRest, {1.0},
                                 true, 0.25, 7),
               std::invalid_argument);
}

TEST(MulticlassValidation, AcceptsTheToySet) {
  const Dataset d = tiny_three_class();
  EXPECT_EQ(train_one_vs_rest(d, {}).classifiers.size(), 3u);
  EXPECT_EQ(train_one_vs_one(d, {}).classifiers.size(), 3u);
}

TEST(MulticlassValidation, RejectsShortLabelVector) {
  Dataset d = tiny_three_class();
  d.y.pop_back();
  expect_all_reject(d);
}

TEST(MulticlassValidation, RejectsLabelsOutsideTheClassRange) {
  // Plain mode used to train these as "rest"; balanced mode threw
  // std::out_of_range from class_counts().
  for (const int bad : {3, -1}) {
    Dataset d = tiny_three_class();
    d.y[4] = bad;
    expect_all_reject(d);
  }
}

TEST(MulticlassValidation, RejectsRaggedRows) {
  Dataset d = tiny_three_class();
  d.X[5].pop_back();
  expect_all_reject(d);
}

// --- serial oracle for the pool-parallel fits -----------------------------
//
// train_one_vs_rest / train_one_vs_one / train_tuned run their independent
// fits as TaskPool slots.  These tests rebuild every model with a plain
// serial loop over train_binary_svm and the documented per-fit seeds, and
// require equality with ==, not a tolerance: the fan-out may change where
// a fit runs, never what it computes or where its result lands.

MulticlassSvm serial_ovr(const Dataset& train,
                         const MulticlassTrainOptions& options) {
  std::vector<double> class_w(static_cast<std::size_t>(train.num_classes),
                              1.0);
  const auto counts = train.class_counts();
  for (std::size_t k = 0; k < counts.size(); ++k) {
    if (counts[k] > 0) {
      class_w[k] = static_cast<double>(train.size()) /
                   (static_cast<double>(counts.size()) *
                    static_cast<double>(counts[k]));
    }
  }
  MulticlassSvm model;
  model.strategy = MulticlassStrategy::kOneVsRest;
  model.num_classes = train.num_classes;
  for (int k = 0; k < train.num_classes; ++k) {
    std::vector<int> y;
    std::vector<double> cw;
    for (std::size_t i = 0; i < train.size(); ++i) {
      y.push_back(train.y[i] == k ? +1 : -1);
      if (options.class_balanced) {
        cw.push_back(class_w[static_cast<std::size_t>(train.y[i])]);
      }
    }
    SvmTrainOptions opts = options.base;
    opts.seed = options.base.seed + static_cast<std::uint64_t>(k) * 7919;
    model.classifiers.push_back(train_binary_svm(train.X, y, opts, cw));
  }
  return model;
}

MulticlassSvm serial_ovo(const Dataset& train,
                         const MulticlassTrainOptions& options) {
  MulticlassSvm model;
  model.strategy = MulticlassStrategy::kOneVsOne;
  model.num_classes = train.num_classes;
  for (int i = 0; i < train.num_classes; ++i) {
    for (int j = i + 1; j < train.num_classes; ++j) {
      std::vector<std::vector<double>> X;
      std::vector<int> y;
      for (std::size_t s = 0; s < train.size(); ++s) {
        if (train.y[s] == i || train.y[s] == j) {
          X.push_back(train.X[s]);
          y.push_back(train.y[s] == i ? +1 : -1);
        }
      }
      SvmTrainOptions opts = options.base;
      opts.seed = options.base.seed +
                  static_cast<std::uint64_t>(i * 131 + j) * 7919;
      model.pairs.emplace_back(i, j);
      model.classifiers.push_back(train_binary_svm(X, y, opts));
    }
  }
  return model;
}

/// Validation accuracy of every (balanced, C) candidate, in the tuner's
/// documented order: plain costs first, then balanced, each over `c_grid`.
std::vector<double> serial_grid_accuracies(const Split& val,
                                           const std::vector<double>& c_grid,
                                           std::uint64_t seed) {
  std::vector<double> accs;
  for (const bool balanced : {false, true}) {
    for (const double c : c_grid) {
      MulticlassTrainOptions opts;
      opts.base.C = c;
      opts.base.seed = seed;
      opts.class_balanced = balanced;
      const MulticlassSvm m = serial_ovr(val.train, opts);
      accs.push_back(accuracy(m.predict_all(val.test.X), val.test.y));
    }
  }
  return accs;
}

void expect_bit_identical(const MulticlassSvm& got,
                          const MulticlassSvm& want) {
  EXPECT_EQ(got.strategy, want.strategy);
  EXPECT_EQ(got.num_classes, want.num_classes);
  EXPECT_EQ(got.pairs, want.pairs);
  ASSERT_EQ(got.classifiers.size(), want.classifiers.size());
  for (std::size_t k = 0; k < want.classifiers.size(); ++k) {
    const BinarySvm& g = got.classifiers[k];
    const BinarySvm& w = want.classifiers[k];
    ASSERT_EQ(g.w.size(), w.w.size()) << "classifier " << k;
    for (std::size_t j = 0; j < w.w.size(); ++j) {
      EXPECT_EQ(g.w[j], w.w[j]) << "classifier " << k << " w[" << j << "]";
    }
    EXPECT_EQ(g.b, w.b) << "classifier " << k << " b";
  }
}

/// Run `train` on the caller and from inside two slots of an enclosing
/// pool group (nested fan-out), and require all three to equal `want`.
template <typename Train>
void expect_oracle_flat_and_nested(const MulticlassSvm& want,
                                   const Train& train) {
  expect_bit_identical(train(), want);
  std::vector<MulticlassSvm> nested(2);
  util::TaskPool::instance().run_group(
      nested.size(), "test.outer",
      [&](std::size_t slot) { nested[slot] = train(); });
  for (const MulticlassSvm& m : nested) expect_bit_identical(m, want);
}

TEST(MulticlassOracle, OneVsRestPenDigitsMatchesSerialFits) {
  const Dataset d = make_uci_like(UciProfile::kPenDigits);
  const Split s = stratified_split(d, 0.3, 11);
  for (const bool balanced : {false, true}) {
    MulticlassTrainOptions opts;
    opts.base.seed = 5;
    opts.class_balanced = balanced;
    const MulticlassSvm want = serial_ovr(s.train, opts);
    ASSERT_EQ(want.classifiers.size(), 10u);
    expect_oracle_flat_and_nested(
        want, [&] { return train_one_vs_rest(s.train, opts); });
  }
}

TEST(MulticlassOracle, OneVsOneDermatologyMatchesSerialFits) {
  const Dataset d = make_uci_like(UciProfile::kDermatology);
  const Split s = stratified_split(d, 0.8, 11);
  MulticlassTrainOptions opts;
  opts.base.seed = 9;
  const MulticlassSvm want = serial_ovo(s.train, opts);
  ASSERT_EQ(want.classifiers.size(), 15u);
  expect_oracle_flat_and_nested(
      want, [&] { return train_one_vs_one(s.train, opts); });
}

TEST(MulticlassOracle, TunedDermatologyKeepsTheFirstMaximum) {
  const Dataset d = make_uci_like(UciProfile::kDermatology);
  const Split s = stratified_split(d, 0.8, 21);
  const std::vector<double> c_grid = {0.02, 0.1, 0.5, 2.0, 8.0};
  const double validation_fraction = 0.25;
  const std::uint64_t seed = 7;

  // Test-local serial tuner: the same validation split, every candidate
  // trained by the serial oracle, first maximum in grid order.
  const Split val = stratified_split(s.train, 1.0 - validation_fraction,
                                     seed ^ 0xC0FFEEull);
  const std::vector<double> accs = serial_grid_accuracies(val, c_grid, seed);
  std::size_t best = 0;
  std::size_t at_max = 0;
  for (std::size_t g = 1; g < accs.size(); ++g) {
    if (accs[g] > accs[best]) best = g;
  }
  for (const double a : accs) at_max += a == accs[best] ? 1 : 0;
  // The tie-break is only tested if several candidates share the maximum
  // and the last of them is a different model from the first.
  ASSERT_GE(at_max, 2u) << "grid no longer produces a validation tie";
  std::size_t last = best;
  for (std::size_t g = 0; g < accs.size(); ++g) {
    if (accs[g] == accs[best]) last = g;
  }
  ASSERT_NE(c_grid[last % c_grid.size()], c_grid[best % c_grid.size()]);

  MulticlassTrainOptions opts;
  opts.base.C = c_grid[best % c_grid.size()];
  opts.base.seed = seed;
  opts.class_balanced = best >= c_grid.size();
  const MulticlassSvm want = serial_ovr(s.train, opts);
  expect_oracle_flat_and_nested(want, [&] {
    return train_tuned(s.train, MulticlassStrategy::kOneVsRest, c_grid,
                       /*search_balanced=*/true, validation_fraction, seed);
  });
}

TEST(MulticlassOracle, BinaryFitCounterIsExact) {
  const Dataset d = make_uci_like(UciProfile::kDermatology);
  const Split s = stratified_split(d, 0.8, 11);
  const auto fits = [] {
    return obs::snapshot_metrics().counter_value("ml.binary_fits");
  };
  std::uint64_t before = fits();
  (void)train_one_vs_rest(s.train, {});
  EXPECT_EQ(fits() - before, 6u);
  before = fits();
  (void)train_one_vs_one(s.train, {});
  EXPECT_EQ(fits() - before, 15u);
  before = fits();
  (void)train_tuned(s.train, MulticlassStrategy::kOneVsRest, {0.1, 1.0, 8.0},
                    /*search_balanced=*/true, 0.25, 7);
  EXPECT_EQ(fits() - before, 6u * 3u * 2u + 6u);  // grid, then the refit
}

TEST(Metrics, AccuracyAndConfusion) {
  EXPECT_DOUBLE_EQ(accuracy({1, 0, 1}, {1, 1, 1}), 2.0 / 3.0);
  EXPECT_THROW((void)accuracy({}, {}), std::invalid_argument);
  EXPECT_THROW((void)accuracy({1}, {1, 2}), std::invalid_argument);
  const auto cm = confusion_matrix({0, 1, 1, 0}, {0, 1, 0, 0}, 2);
  EXPECT_EQ(cm[0][0], 2);
  EXPECT_EQ(cm[0][1], 1);
  EXPECT_EQ(cm[1][1], 1);
  EXPECT_EQ(cm[1][0], 0);
  const double f1 = macro_f1({0, 1, 1, 0}, {0, 1, 0, 0}, 2);
  EXPECT_GT(f1, 0.0);
  EXPECT_LE(f1, 1.0);
}

}  // namespace
}  // namespace pml::ml
