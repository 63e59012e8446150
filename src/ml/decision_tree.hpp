#pragma once
/// \file decision_tree.hpp
/// CART regression trees — the surrogate model of §V-C. Defaults mirror the
/// paper's scikit-learn setup: best-split search, squared-error criterion,
/// and no constraints on depth, leaf count or leaf size ("minimal constraints
/// on the creation of new leaves"). Constraints and an exact absolute-error
/// criterion are provided for the ablation benches.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "ml/dataset.hpp"

namespace adse::ml {

/// Split-quality criterion. kMse is the paper's choice; kMae is the exact
/// absolute-error criterion (O(n log n) per feature via an order-statistics
/// tree) used by the ablation study of §V-C's MSE-vs-MAE discussion.
enum class Criterion { kMse, kMae };

struct TreeOptions {
  Criterion criterion = Criterion::kMse;
  int max_depth = -1;         ///< -1 = unlimited
  int min_samples_split = 2;  ///< minimum rows to attempt a split
  int min_samples_leaf = 1;   ///< minimum rows in each child
  /// Random feature subsampling per split (0 = consider all features) —
  /// useful for building cheap forests in tests; not used by the paper.
  int max_features = 0;
  std::uint64_t seed = 1;     ///< only used when max_features > 0
};

/// Every feature's row ids sorted by (value, target) — exactly
/// std::pair<double, double>::operator< — computed once per dataset so split
/// search scans sorted runs instead of sorting each node. Rows with equal
/// (value, target) pairs are interchangeable to the scan, so one order serves
/// every subset (and bootstrap multiset) of the rows: a forest sorts once and
/// shares it across all its trees.
class FeatureOrder {
 public:
  explicit FeatureOrder(const Dataset& data);

  std::size_t num_rows() const { return rows_; }
  std::size_t num_features() const { return features_; }

  /// Row ids of feature `f`, ascending by (x[row][f], y[row]).
  std::span<const std::uint32_t> feature(std::size_t f) const {
    return {order_.data() + f * rows_, rows_};
  }

 private:
  std::size_t rows_;
  std::size_t features_;
  std::vector<std::uint32_t> order_;  ///< feature-major, rows_ per feature
};

class DecisionTreeRegressor {
 public:
  explicit DecisionTreeRegressor(const TreeOptions& options = {});

  /// Fits the tree; requires at least one row.
  void fit(const Dataset& data);

  /// Fits on the rows `rows` of `data`, repeats allowed (a bootstrap
  /// sample), with `order` the FeatureOrder of `data`. Grows the same tree,
  /// bit for bit, as fit() on a Dataset holding those rows in that order,
  /// without copying them.
  void fit(const Dataset& data, const FeatureOrder& order,
           std::span<const std::uint32_t> rows);

  /// Predicts one feature row (width must match the training data).
  double predict(const std::vector<double>& row) const;

  /// Predicts every row of a dataset.
  std::vector<double> predict_all(const Dataset& data) const;

  // --- introspection (contribution C2/C3: the model must be explainable) ---
  bool fitted() const { return !nodes_.empty(); }
  std::size_t num_nodes() const { return nodes_.size(); }
  std::size_t num_leaves() const;
  int depth() const;
  std::size_t num_features() const { return num_features_; }

  /// Impurity-decrease ("Gini") feature importance, normalised to sum to 1 —
  /// scikit-learn's feature_importances_. Complements the permutation
  /// importance of importance.hpp.
  std::vector<double> impurity_importance() const;

  /// Renders the top of the tree as indented text (for reports/debugging).
  std::string dump(int max_depth = 3,
                   const std::vector<std::string>& feature_names = {}) const;

  struct Node {
    // Internal nodes: feature >= 0, threshold set, children valid.
    // Leaves: feature == -1, value = mean (MSE) or median (MAE) of samples.
    std::int32_t feature = -1;
    double threshold = 0.0;
    std::int32_t left = -1;
    std::int32_t right = -1;
    double value = 0.0;
    double impurity = 0.0;     ///< criterion value at this node
    std::uint32_t n_samples = 0;
  };

  /// The fitted nodes in build order (depth-first, left child first).
  const std::vector<Node>& nodes() const { return nodes_; }

 private:

  struct BestSplit {
    bool found = false;
    int feature = -1;
    double threshold = 0.0;
    double score = 0.0;  ///< summed child impurity (lower is better)
  };

  /// Per-fit state: the node row lists and the presorted feature runs
  /// (defined in decision_tree.cpp).
  struct Workspace;

  std::int32_t build(Workspace& ws, Rng& rng);
  BestSplit find_best_split(const Workspace& ws, std::size_t begin,
                            std::size_t end, Rng& rng) const;
  int depth_of(std::int32_t node) const;

  TreeOptions options_;
  std::vector<Node> nodes_;
  std::int32_t root_ = -1;
  std::size_t num_features_ = 0;
};

}  // namespace adse::ml
