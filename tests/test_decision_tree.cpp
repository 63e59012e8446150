#include "ml/decision_tree.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>

#include "common/require.hpp"
#include "ml/metrics.hpp"

namespace adse::ml {
namespace {

Dataset from_function(int n, int features, std::uint64_t seed,
                      double (*f)(const std::vector<double>&)) {
  Dataset d;
  for (int i = 0; i < features; ++i) d.feature_names.push_back("x" + std::to_string(i));
  Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    std::vector<double> row;
    for (int j = 0; j < features; ++j) row.push_back(rng.uniform_real(0, 10));
    const double y = f(row);
    d.add_row(std::move(row), y);
  }
  return d;
}

TEST(DecisionTree, PredictBeforeFitThrows) {
  DecisionTreeRegressor tree;
  EXPECT_FALSE(tree.fitted());
  EXPECT_THROW(tree.predict({1.0}), InvariantError);
}

TEST(DecisionTree, FitEmptyThrows) {
  DecisionTreeRegressor tree;
  Dataset d;
  d.feature_names = {"a"};
  EXPECT_THROW(tree.fit(d), InvariantError);
}

TEST(DecisionTree, ConstantTargetIsOneLeaf) {
  Dataset d;
  d.feature_names = {"a"};
  for (int i = 0; i < 20; ++i) d.add_row({static_cast<double>(i)}, 5.0);
  DecisionTreeRegressor tree;
  tree.fit(d);
  EXPECT_EQ(tree.num_leaves(), 1u);
  EXPECT_EQ(tree.depth(), 0);
  EXPECT_DOUBLE_EQ(tree.predict({-100.0}), 5.0);
}

TEST(DecisionTree, LearnsStepFunctionExactly) {
  Dataset d;
  d.feature_names = {"a"};
  for (int i = 0; i < 50; ++i) {
    const double x = static_cast<double>(i);
    d.add_row({x}, x < 25 ? 1.0 : 9.0);
  }
  DecisionTreeRegressor tree;
  tree.fit(d);
  EXPECT_EQ(tree.num_leaves(), 2u);
  EXPECT_DOUBLE_EQ(tree.predict({10.0}), 1.0);
  EXPECT_DOUBLE_EQ(tree.predict({40.0}), 9.0);
  // Threshold is the midpoint between 24 and 25.
  EXPECT_DOUBLE_EQ(tree.predict({24.4}), 1.0);
  EXPECT_DOUBLE_EQ(tree.predict({24.6}), 9.0);
}

TEST(DecisionTree, UnconstrainedTreeMemorisesTraining) {
  // §V-C: no depth/leaf constraints -> training predictions are exact for
  // distinct feature rows.
  const Dataset d = from_function(300, 3, 5, [](const std::vector<double>& x) {
    return x[0] * 7 + x[1] * x[1] - 3 * x[2];
  });
  DecisionTreeRegressor tree;
  tree.fit(d);
  const auto pred = tree.predict_all(d);
  for (std::size_t i = 0; i < d.num_rows(); ++i) {
    EXPECT_NEAR(pred[i], d.y[i], 1e-9);
  }
  EXPECT_EQ(tree.num_leaves(), d.num_rows());
}

TEST(DecisionTree, GeneralisesSmoothFunction) {
  auto f = [](const std::vector<double>& x) { return 3.0 * x[0] + x[1]; };
  const Dataset train = from_function(2000, 2, 11, f);
  const Dataset test = from_function(200, 2, 13, f);
  DecisionTreeRegressor tree;
  tree.fit(train);
  EXPECT_GT(r2(test.y, tree.predict_all(test)), 0.95);
}

TEST(DecisionTree, LearnsInteraction) {
  // XOR-like interaction no single split captures.
  auto f = [](const std::vector<double>& x) {
    return ((x[0] > 5) != (x[1] > 5)) ? 10.0 : 0.0;
  };
  const Dataset train = from_function(1500, 2, 17, f);
  const Dataset test = from_function(200, 2, 19, f);
  DecisionTreeRegressor tree;
  tree.fit(train);
  EXPECT_GT(r2(test.y, tree.predict_all(test)), 0.9);
}

TEST(DecisionTree, MaxDepthRespected) {
  const Dataset d = from_function(500, 2, 23, [](const std::vector<double>& x) {
    return x[0] * x[1];
  });
  TreeOptions opts;
  opts.max_depth = 3;
  DecisionTreeRegressor tree(opts);
  tree.fit(d);
  EXPECT_LE(tree.depth(), 3);
  EXPECT_LE(tree.num_leaves(), 8u);
}

TEST(DecisionTree, MinSamplesLeafRespected) {
  const Dataset d = from_function(200, 2, 29, [](const std::vector<double>& x) {
    return x[0];
  });
  TreeOptions opts;
  opts.min_samples_leaf = 20;
  DecisionTreeRegressor tree(opts);
  tree.fit(d);
  EXPECT_LE(tree.num_leaves(), 10u);  // 200 / 20
}

TEST(DecisionTree, MinSamplesSplitRespected) {
  const Dataset d = from_function(100, 1, 31, [](const std::vector<double>& x) {
    return x[0];
  });
  TreeOptions opts;
  opts.min_samples_split = 60;
  DecisionTreeRegressor tree(opts);
  tree.fit(d);
  // Root (100) splits once; children (<60) cannot split again.
  EXPECT_LE(tree.num_leaves(), 2u);
}

TEST(DecisionTree, InvalidOptionsThrow) {
  TreeOptions bad;
  bad.min_samples_split = 1;
  EXPECT_THROW(DecisionTreeRegressor{bad}, InvariantError);
  TreeOptions bad2;
  bad2.min_samples_leaf = 0;
  EXPECT_THROW(DecisionTreeRegressor{bad2}, InvariantError);
}

TEST(DecisionTree, WrongPredictWidthThrows) {
  const Dataset d = from_function(50, 2, 37, [](const std::vector<double>& x) {
    return x[0];
  });
  DecisionTreeRegressor tree;
  tree.fit(d);
  EXPECT_THROW(tree.predict({1.0}), InvariantError);
  EXPECT_THROW(tree.predict({1.0, 2.0, 3.0}), InvariantError);
}

TEST(DecisionTree, ImpurityImportanceFindsRelevantFeature) {
  // y depends only on x1; x0 is noise.
  const Dataset d = from_function(800, 2, 41, [](const std::vector<double>& x) {
    return 100.0 * x[1];
  });
  DecisionTreeRegressor tree;
  tree.fit(d);
  const auto importance = tree.impurity_importance();
  EXPECT_GT(importance[1], 0.95);
  EXPECT_LT(importance[0], 0.05);
  EXPECT_NEAR(importance[0] + importance[1], 1.0, 1e-9);
}

TEST(DecisionTree, MaeCriterionUsesMedianLeaves) {
  Dataset d;
  d.feature_names = {"a"};
  // One outlier: the median-leaf prediction ignores it, the mean would not.
  for (double y : {1.0, 1.0, 1.0, 1.0, 101.0}) d.add_row({1.0}, y);
  TreeOptions opts;
  opts.criterion = Criterion::kMae;
  DecisionTreeRegressor tree(opts);
  tree.fit(d);  // constant feature: single leaf
  EXPECT_DOUBLE_EQ(tree.predict({1.0}), 1.0);
}

TEST(DecisionTree, MaeCriterionLearnsStep) {
  Dataset d;
  d.feature_names = {"a"};
  for (int i = 0; i < 60; ++i) {
    const double x = static_cast<double>(i);
    d.add_row({x}, x < 30 ? 2.0 : 8.0);
  }
  TreeOptions opts;
  opts.criterion = Criterion::kMae;
  DecisionTreeRegressor tree(opts);
  tree.fit(d);
  EXPECT_DOUBLE_EQ(tree.predict({5.0}), 2.0);
  EXPECT_DOUBLE_EQ(tree.predict({45.0}), 8.0);
}

TEST(DecisionTree, MseAndMaeAgreeOnCleanData) {
  auto f = [](const std::vector<double>& x) { return x[0] > 5 ? 1.0 : 0.0; };
  const Dataset d = from_function(400, 1, 43, f);
  TreeOptions mae_opts;
  mae_opts.criterion = Criterion::kMae;
  DecisionTreeRegressor mse_tree, mae_tree(mae_opts);
  mse_tree.fit(d);
  mae_tree.fit(d);
  const Dataset test = from_function(100, 1, 47, f);
  EXPECT_EQ(mse_tree.predict_all(test), mae_tree.predict_all(test));
}

TEST(DecisionTree, MaxFeaturesSubsampling) {
  const Dataset d = from_function(300, 5, 53, [](const std::vector<double>& x) {
    return x[0] + x[1];
  });
  TreeOptions opts;
  opts.max_features = 2;
  opts.seed = 9;
  DecisionTreeRegressor tree(opts);
  tree.fit(d);
  EXPECT_TRUE(tree.fitted());
  // Training fit still near-perfect (deep tree can recover).
  EXPECT_GT(r2(d.y, tree.predict_all(d)), 0.95);
}

TEST(DecisionTree, DumpShowsFeatureNames) {
  const Dataset d = from_function(100, 2, 59, [](const std::vector<double>& x) {
    return x[1] > 5 ? 1.0 : 0.0;
  });
  DecisionTreeRegressor tree;
  tree.fit(d);
  const std::string dump = tree.dump(2, d.feature_names);
  EXPECT_NE(dump.find("x1 <="), std::string::npos);
}

TEST(DecisionTree, DeterministicFit) {
  const Dataset d = from_function(500, 3, 61, [](const std::vector<double>& x) {
    return x[0] * x[1] - x[2];
  });
  DecisionTreeRegressor a, b;
  a.fit(d);
  b.fit(d);
  EXPECT_EQ(a.num_nodes(), b.num_nodes());
  EXPECT_EQ(a.predict_all(d), b.predict_all(d));
}

TEST(DecisionTree, SingleRowDataset) {
  Dataset d;
  d.feature_names = {"a"};
  d.add_row({1.0}, 42.0);
  DecisionTreeRegressor tree;
  tree.fit(d);
  EXPECT_DOUBLE_EQ(tree.predict({99.0}), 42.0);
}

TEST(DecisionTree, DuplicateFeatureValuesDifferentTargets) {
  Dataset d;
  d.feature_names = {"a"};
  for (int i = 0; i < 10; ++i) d.add_row({1.0}, static_cast<double>(i));
  DecisionTreeRegressor tree;
  tree.fit(d);  // cannot split a constant feature
  EXPECT_EQ(tree.num_leaves(), 1u);
  EXPECT_DOUBLE_EQ(tree.predict({1.0}), 4.5);
}

TEST(DecisionTree, DeepChainDoesNotOverflowStack) {
  // Monotone data with min_samples_leaf=1 can chain; the builder must use an
  // explicit stack. 20k rows would crash a naive recursive implementation if
  // it degenerated; here we simply verify a large fit completes.
  Dataset d;
  d.feature_names = {"a"};
  Rng rng(67);
  for (int i = 0; i < 20000; ++i) {
    d.add_row({static_cast<double>(i)}, rng.uniform_real(0, 1));
  }
  DecisionTreeRegressor tree;
  tree.fit(d);
  EXPECT_EQ(tree.num_leaves(), 20000u);
}

/// FNV-1a over the eight bytes of `v`: the pins below hash raw double bits,
/// so any drift in a threshold, leaf value or prediction changes them.
std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffU;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Small-integer features (so sorted runs tie), tied targets and every
/// fourth row duplicated: the cases where a presorted scan could reorder.
Dataset tied_dataset(int n, std::uint64_t seed) {
  Dataset d;
  d.feature_names = {"a", "b", "c", "d", "e"};
  Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    std::vector<double> row{static_cast<double>(rng.index(4)),
                            static_cast<double>(rng.index(9)),
                            static_cast<double>(rng.index(3)) * 0.5,
                            rng.uniform_real(0, 1),
                            static_cast<double>(rng.index(2))};
    // Tenths make every sum depend on its order, so the pin also fixes
    // the order node statistics add rows in.
    const double y = 3.0 * row[0] + (row[1] > 4 ? 5.0 : 0.0) + row[2] * row[4] +
                     0.1 * static_cast<double>(rng.index(4));
    if (i % 4 == 0) d.add_row(row, y);
    d.add_row(std::move(row), y);
  }
  return d;
}

TEST(DecisionTree, PinnedNodeDigest) {
  // Pinned on the per-node sorting implementation; the presorted builder
  // must reproduce every node bit for bit under both criteria, with and
  // without feature subsampling and leaf limits.
  const Dataset d = tied_dataset(300, 71);
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  for (const Criterion criterion : {Criterion::kMse, Criterion::kMae}) {
    for (const int max_features : {0, 2}) {
      for (const int min_leaf : {1, 3}) {
        TreeOptions opts;
        opts.criterion = criterion;
        opts.max_features = max_features;
        opts.min_samples_leaf = min_leaf;
        opts.seed = 5;
        DecisionTreeRegressor tree(opts);
        tree.fit(d);
        for (const auto& node : tree.nodes()) {
          const auto feature = static_cast<std::int64_t>(node.feature);
          digest = fnv_mix(digest, static_cast<std::uint64_t>(feature));
          digest =
              fnv_mix(digest, std::bit_cast<std::uint64_t>(node.threshold));
          digest = fnv_mix(digest, std::bit_cast<std::uint64_t>(node.value));
          digest = fnv_mix(digest, node.n_samples);
        }
      }
    }
  }
  EXPECT_EQ(digest, 0xc174ebbba6e4e1f1ULL);
}

TEST(DecisionTree, FitOnRowsMatchesCopiedDataset) {
  // The row-list fit a forest uses (repeats allowed, shared FeatureOrder)
  // must grow exactly the tree a copied Dataset of those rows grows.
  const Dataset d = tied_dataset(120, 73);
  const FeatureOrder order(d);
  Rng rng(74);
  std::vector<std::uint32_t> rows;
  Dataset copy;
  copy.feature_names = d.feature_names;
  for (std::size_t i = 0; i < d.num_rows(); ++i) {
    const auto row = static_cast<std::uint32_t>(rng.index(d.num_rows()));
    rows.push_back(row);
    copy.add_row(d.x[row], d.y[row]);
  }
  for (const Criterion criterion : {Criterion::kMse, Criterion::kMae}) {
    TreeOptions opts;
    opts.criterion = criterion;
    opts.max_features = 2;
    opts.seed = 9;
    DecisionTreeRegressor on_rows(opts), on_copy(opts);
    on_rows.fit(d, order, rows);
    on_copy.fit(copy);
    ASSERT_EQ(on_rows.num_nodes(), on_copy.num_nodes());
    for (std::size_t i = 0; i < on_rows.num_nodes(); ++i) {
      const auto& a = on_rows.nodes()[i];
      const auto& b = on_copy.nodes()[i];
      EXPECT_EQ(a.feature, b.feature) << "node " << i;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(a.threshold),
                std::bit_cast<std::uint64_t>(b.threshold))
          << "node " << i;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(a.value),
                std::bit_cast<std::uint64_t>(b.value))
          << "node " << i;
      EXPECT_EQ(a.n_samples, b.n_samples) << "node " << i;
    }
  }
}

TEST(DecisionTree, FitRejectsForeignFeatureOrderAndRows) {
  const Dataset d = tied_dataset(40, 75);
  const Dataset other = tied_dataset(30, 76);
  const FeatureOrder order(other);
  const std::vector<std::uint32_t> rows{0, 1, 2};
  DecisionTreeRegressor tree;
  EXPECT_THROW(tree.fit(d, order, rows), InvariantError);
  const FeatureOrder own(d);
  const std::vector<std::uint32_t> out_of_range{0, 1000};
  EXPECT_THROW(tree.fit(d, own, out_of_range), InvariantError);
  EXPECT_THROW(tree.fit(d, own, std::vector<std::uint32_t>{}), InvariantError);
}

}  // namespace
}  // namespace adse::ml
