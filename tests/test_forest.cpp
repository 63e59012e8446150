#include "ml/forest.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <functional>
#include <string>

#include "common/require.hpp"
#include "common/thread_pool.hpp"
#include "ml/importance.hpp"
#include "ml/metrics.hpp"

namespace adse::ml {
namespace {

Dataset noisy_function(int n, std::uint64_t seed) {
  Dataset d;
  d.feature_names = {"x0", "x1", "x2"};
  Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    std::vector<double> row{rng.uniform_real(0, 10), rng.uniform_real(0, 10),
                            rng.uniform_real(0, 10)};
    const double y =
        20 * row[0] + row[1] * row[1] + rng.uniform_real(-5, 5);  // noise
    d.add_row(std::move(row), y);
  }
  return d;
}

TEST(Forest, PredictBeforeFitThrows) {
  RandomForestRegressor forest;
  EXPECT_FALSE(forest.fitted());
  EXPECT_THROW(forest.predict({1, 2, 3}), InvariantError);
}

TEST(Forest, InvalidOptionsThrow) {
  ForestOptions bad;
  bad.num_trees = 0;
  EXPECT_THROW(RandomForestRegressor{bad}, InvariantError);
  ForestOptions bad2;
  bad2.sample_fraction = 0.0;
  EXPECT_THROW(RandomForestRegressor{bad2}, InvariantError);
}

TEST(Forest, FitsAndPredicts) {
  const Dataset train = noisy_function(600, 1);
  const Dataset test = noisy_function(200, 2);
  ForestOptions opts;
  opts.num_trees = 30;
  RandomForestRegressor forest(opts);
  forest.fit(train);
  EXPECT_EQ(forest.num_trees(), 30u);
  EXPECT_GT(r2(test.y, forest.predict_all(test)), 0.9);
}

TEST(Forest, BeatsSingleTreeOnNoisyData) {
  const Dataset train = noisy_function(500, 3);
  const Dataset test = noisy_function(300, 4);
  DecisionTreeRegressor tree;
  tree.fit(train);
  ForestOptions opts;
  opts.num_trees = 40;
  RandomForestRegressor forest(opts);
  forest.fit(train);
  EXPECT_LT(mae(test.y, forest.predict_all(test)),
            mae(test.y, tree.predict_all(test)));
}

TEST(Forest, OobErrorEstimatesGeneralisation) {
  const Dataset train = noisy_function(500, 5);
  const Dataset test = noisy_function(300, 6);
  ForestOptions opts;
  opts.num_trees = 40;
  RandomForestRegressor forest(opts);
  forest.fit(train);
  const double test_mae = mae(test.y, forest.predict_all(test));
  EXPECT_GT(forest.oob_mae(), 0.0);
  // OOB estimate within 2x of the true held-out error.
  EXPECT_LT(forest.oob_mae(), test_mae * 2.0);
  EXPECT_GT(forest.oob_mae(), test_mae * 0.5);
}

TEST(Forest, DeterministicForSeed) {
  const Dataset d = noisy_function(200, 7);
  ForestOptions opts;
  opts.num_trees = 10;
  opts.seed = 42;
  RandomForestRegressor a(opts), b(opts);
  a.fit(d);
  b.fit(d);
  EXPECT_EQ(a.predict_all(d), b.predict_all(d));
}

TEST(Forest, FeatureSubsamplingWorks) {
  const Dataset d = noisy_function(300, 8);
  ForestOptions opts;
  opts.num_trees = 20;
  opts.max_features = 1;
  RandomForestRegressor forest(opts);
  forest.fit(d);
  EXPECT_GT(r2(d.y, forest.predict_all(d)), 0.5);
}

TEST(Forest, ImportanceFindsRelevantFeatures) {
  const Dataset d = noisy_function(600, 9);
  ForestOptions opts;
  opts.num_trees = 25;
  RandomForestRegressor forest(opts);
  forest.fit(d);
  const auto imp = forest.impurity_importance();
  EXPECT_GT(imp[0], imp[2]);  // x0 matters, x2 is noise
  EXPECT_GT(imp[1], imp[2]);
  double total = 0;
  for (double v : imp) total += v;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Forest, PermutationImportanceOverloadWorks) {
  const Dataset d = noisy_function(400, 10);
  ForestOptions opts;
  opts.num_trees = 15;
  RandomForestRegressor forest(opts);
  forest.fit(d);
  Rng rng(1);
  const auto result = permutation_importance(forest, d, rng);
  EXPECT_GT(result.percent[0], result.percent[2]);
}

TEST(Forest, PredictDistStdIsZeroForIdenticalTrees) {
  // A constant target makes every bootstrap tree identical, so the ensemble
  // spread must collapse to exactly zero.
  Dataset d;
  d.feature_names = {"x0", "x1"};
  Rng rng(12);
  for (int i = 0; i < 100; ++i) {
    d.add_row({rng.uniform01(), rng.uniform01()}, 7.5);
  }
  ForestOptions opts;
  opts.num_trees = 20;
  RandomForestRegressor forest(opts);
  forest.fit(d);
  const auto dist = forest.predict_dist({0.3, 0.6});
  EXPECT_DOUBLE_EQ(dist.mean, 7.5);
  EXPECT_DOUBLE_EQ(dist.std, 0.0);
}

TEST(Forest, PredictDistStdIsZeroForSingleTree) {
  const Dataset d = noisy_function(150, 13);
  ForestOptions opts;
  opts.num_trees = 1;
  RandomForestRegressor forest(opts);
  forest.fit(d);
  EXPECT_DOUBLE_EQ(forest.predict_dist(d.x[0]).std, 0.0);
}

TEST(Forest, PredictDistStdPositiveUnderBootstrapVariance) {
  const Dataset d = noisy_function(300, 14);
  ForestOptions opts;
  opts.num_trees = 30;
  RandomForestRegressor forest(opts);
  forest.fit(d);
  // Noisy targets + bootstrap resampling must leave the trees disagreeing
  // somewhere; probe the training rows themselves.
  const auto dists = forest.predict_dist_all(d);
  ASSERT_EQ(dists.size(), d.num_rows());
  double max_std = 0.0;
  for (const auto& dist : dists) {
    EXPECT_GE(dist.std, 0.0);
    max_std = std::max(max_std, dist.std);
  }
  EXPECT_GT(max_std, 0.0);
}

TEST(Forest, PredictDistMeanMatchesPredict) {
  const Dataset d = noisy_function(200, 15);
  ForestOptions opts;
  opts.num_trees = 25;
  RandomForestRegressor forest(opts);
  forest.fit(d);
  for (int i = 0; i < 20; ++i) {
    const auto dist = forest.predict_dist(d.x[static_cast<std::size_t>(i)]);
    EXPECT_NEAR(dist.mean, forest.predict(d.x[static_cast<std::size_t>(i)]),
                1e-9);
  }
}

TEST(Forest, PredictDistDeterministicForSeed) {
  const Dataset d = noisy_function(200, 16);
  ForestOptions opts;
  opts.num_trees = 15;
  opts.seed = 99;
  RandomForestRegressor a(opts), b(opts);
  a.fit(d);
  b.fit(d);
  for (const auto& row : d.x) {
    const auto da = a.predict_dist(row);
    const auto db = b.predict_dist(row);
    EXPECT_DOUBLE_EQ(da.mean, db.mean);
    EXPECT_DOUBLE_EQ(da.std, db.std);
  }
}

TEST(Forest, PredictDistBeforeFitThrows) {
  RandomForestRegressor forest;
  EXPECT_THROW(forest.predict_dist({1, 2, 3}), InvariantError);
}

TEST(Forest, SingleTreeForestMatchesBaggedTree) {
  // One tree with full sampling fraction=1.0 still differs from a plain tree
  // (bootstrap duplicates rows) but must remain a sane regressor.
  const Dataset d = noisy_function(200, 11);
  ForestOptions opts;
  opts.num_trees = 1;
  RandomForestRegressor forest(opts);
  forest.fit(d);
  EXPECT_GT(r2(d.y, forest.predict_all(d)), 0.8);
}

std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffU;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Twelve features on small integer grids (ties in every column), tied
/// targets and duplicated rows — the shape of a search dataset.
Dataset tied_dataset(int n, std::uint64_t seed) {
  Dataset d;
  for (int f = 0; f < 12; ++f) {
    d.feature_names.push_back("x" + std::to_string(f));
  }
  Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    std::vector<double> row;
    for (std::size_t f = 0; f < 12; ++f) {
      row.push_back(static_cast<double>(rng.index(f + 2)));
    }
    // Tenths make every sum depend on its order (node sums, OOB sums).
    const double y = 10.0 * row[0] + row[3] * row[5] +
                     0.1 * static_cast<double>(rng.index(3));
    if (i % 5 == 0) d.add_row(row, y);
    d.add_row(std::move(row), y);
  }
  return d;
}

/// Hash of everything a fitted forest reports: per-row mean and std,
/// the OOB error and the impurity importances.
std::uint64_t forest_digest(const RandomForestRegressor& forest,
                            const Dataset& probe) {
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  for (const auto& row : probe.x) {
    const PredictionDistribution dist = forest.predict_dist(row);
    digest = fnv_mix(digest, std::bit_cast<std::uint64_t>(dist.mean));
    digest = fnv_mix(digest, std::bit_cast<std::uint64_t>(dist.std));
  }
  digest = fnv_mix(digest, std::bit_cast<std::uint64_t>(forest.oob_mae()));
  for (const double v : forest.impurity_importance()) {
    digest = fnv_mix(digest, std::bit_cast<std::uint64_t>(v));
  }
  return digest;
}

TEST(Forest, PinnedFitDigest) {
  // Pinned on the serial, Dataset-copying fit: bootstrap draws, per-tree
  // seeds, node sums and OOB accumulation must all stay in the same order.
  const Dataset train = tied_dataset(160, 81);
  const Dataset probe = tied_dataset(60, 82);
  std::uint64_t digest = 0;
  for (const int trees : {1, 40}) {
    for (const int max_features : {0, 10}) {
      ForestOptions opts;
      opts.num_trees = trees;
      opts.max_features = max_features;
      opts.seed = 7;
      RandomForestRegressor forest(opts);
      forest.fit(train);
      digest = fnv_mix(digest, forest_digest(forest, probe));
    }
  }
  EXPECT_EQ(digest, 0x185a2cec97c23a36ULL);
}

TEST(Forest, ParallelFitIsBitIdentical) {
  // Trees fitted on a pool must match the serial fit exactly: same bootstrap
  // rows and seeds, OOB sums in tree order. Compared with ==, not a
  // tolerance.
  const Dataset train = tied_dataset(160, 83);
  const Dataset probe = tied_dataset(60, 84);
  for (const std::size_t threads : {1U, 4U}) {
    ThreadPool pool(threads);
    const ParallelFor on_pool =
        [&pool](std::size_t count, const std::function<void(std::size_t)>& fn) {
          pool.parallel_for(count, fn);
        };
    for (const int trees : {1, 40}) {
      for (const int max_features : {0, 10}) {
        ForestOptions opts;
        opts.num_trees = trees;
        opts.max_features = max_features;
        opts.seed = 11;
        RandomForestRegressor serial(opts), pooled(opts);
        serial.fit(train);
        pooled.fit(train, on_pool);
        const std::string where = std::to_string(threads) + " threads, " +
                                  std::to_string(trees) + " trees, " +
                                  std::to_string(max_features) + " features";
        for (const auto& row : probe.x) {
          const PredictionDistribution a = serial.predict_dist(row);
          const PredictionDistribution b = pooled.predict_dist(row);
          EXPECT_TRUE(a.mean == b.mean && a.std == b.std) << where;
        }
        EXPECT_TRUE(serial.oob_mae() == pooled.oob_mae()) << where;
        EXPECT_TRUE(serial.impurity_importance() ==
                    pooled.impurity_importance())
            << where;
        EXPECT_EQ(forest_digest(serial, probe), forest_digest(pooled, probe))
            << where;
      }
    }
  }
}

}  // namespace
}  // namespace adse::ml
