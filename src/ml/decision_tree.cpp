#include "ml/decision_tree.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <sstream>
#include <tuple>

#include "common/require.hpp"

namespace adse::ml {

namespace {

/// Fenwick tree over value ranks carrying counts and sums — supports the
/// exact absolute-error criterion in O(log n) per update/query.
class OrderStats {
 public:
  explicit OrderStats(std::size_t ranks)
      : count_(ranks + 1, 0), sum_(ranks + 1, 0.0), total_count_(0),
        total_sum_(0.0) {}

  void add(std::size_t rank, double value, int sign) {
    total_count_ += sign;
    total_sum_ += sign * value;
    for (std::size_t i = rank + 1; i < count_.size(); i += i & (~i + 1)) {
      count_[i] += sign;
      sum_[i] += sign * value;
    }
  }

  long long count() const { return total_count_; }

  /// Sum of |y - median| over the multiset (0 when empty).
  double abs_deviation_around_median() const {
    if (total_count_ == 0) return 0.0;
    const long long k = (total_count_ + 1) / 2;  // lower median position
    // Find smallest rank with prefix count >= k, tracking prefix count/sum.
    std::size_t pos = 0;
    long long cnt = 0;
    double sum = 0.0;
    std::size_t mask = 1;
    while ((mask << 1) < count_.size()) mask <<= 1;
    double median = 0.0;
    for (; mask > 0; mask >>= 1) {
      const std::size_t next = pos + mask;
      if (next < count_.size() && cnt + count_[next] < k) {
        pos = next;
        cnt += count_[next];
        sum += sum_[next];
      }
    }
    // pos is the rank *before* the median rank; median rank = pos (0-based).
    // cnt/sum cover ranks < median rank.
    median = rank_value_ ? (*rank_value_)[pos] : 0.0;
    const long long below = cnt;
    const double below_sum = sum;
    const long long above = total_count_ - below;
    const double above_sum = total_sum_ - below_sum;
    // Elements equal to the median contribute zero either way; folding them
    // into "above" keeps the arithmetic exact.
    return (static_cast<double>(below) * median - below_sum) +
           (above_sum - static_cast<double>(above) * median);
  }

  void attach_rank_values(const std::vector<double>* rank_value) {
    rank_value_ = rank_value;
  }

 private:
  std::vector<long long> count_;
  std::vector<double> sum_;
  long long total_count_;
  double total_sum_;
  const std::vector<double>* rank_value_ = nullptr;
};

double median_of(std::vector<double> v) {
  ADSE_REQUIRE(!v.empty());
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid),
                   v.end());
  if (v.size() % 2 == 1) return v[mid];
  const double hi = v[mid];
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid) - 1,
                   v.begin() + static_cast<std::ptrdiff_t>(mid));
  return 0.5 * (v[mid - 1] + hi);
}

/// One entry of a presorted feature run: the (value, target) pair the split
/// scan reads, and the row it came from (which side of a split it goes to).
struct SortedEntry {
  double x;
  double y;
  std::uint32_t row;
};

/// Stably moves the entries whose row is marked in `goes_left` to the front
/// of [first, first + n), the rest after them (through `spill`); returns the
/// left count. Same result as std::stable_partition, without its allocation.
template <typename T, typename RowOf>
std::size_t stable_split(T* first, std::size_t n, T* spill,
                         const std::vector<std::uint8_t>& goes_left,
                         RowOf row_of) {
  std::size_t left = 0, right = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (goes_left[row_of(first[i])]) {
      first[left++] = first[i];
    } else {
      spill[right++] = first[i];
    }
  }
  std::copy(spill, spill + right, first + left);
  return left;
}

}  // namespace

FeatureOrder::FeatureOrder(const Dataset& data)
    : rows_(data.num_rows()), features_(data.num_features()) {
  data.check();
  ADSE_REQUIRE_MSG(rows_ <= std::numeric_limits<std::uint32_t>::max(),
                   "too many rows for a feature order: " << rows_);
  order_.resize(rows_ * features_);
  std::vector<SortedEntry> column(rows_);
  for (std::size_t f = 0; f < features_; ++f) {
    for (std::size_t r = 0; r < rows_; ++r) {
      column[r] = {data.x[r][f], data.y[r], static_cast<std::uint32_t>(r)};
    }
    std::sort(column.begin(), column.end(),
              [](const SortedEntry& a, const SortedEntry& b) {
                return std::make_pair(a.x, a.y) < std::make_pair(b.x, b.y);
              });
    for (std::size_t i = 0; i < rows_; ++i) {
      order_[f * rows_ + i] = column[i].row;
    }
  }
}

/// The rows a fit grows from, in two views over the same multiset. Node
/// [begin, end) owns indices[begin, end) — the rows in the order fit() was
/// given them, which the node sums follow — and, for every feature f, the
/// run sorted[f * m + begin, f * m + end), ascending by (value, target).
/// A split stably partitions the row list and every run, so each child's
/// runs stay sorted and no node ever sorts.
struct DecisionTreeRegressor::Workspace {
  Workspace(const Dataset& data, const FeatureOrder& order,
            std::span<const std::uint32_t> rows)
      : data(data),
        m(rows.size()),
        indices(rows.begin(), rows.end()),
        sorted(data.num_features() * rows.size()),
        goes_left(data.num_rows(), 0),
        spill_rows(rows.size()),
        spill_entries(rows.size()) {
    // A repeated row is emitted once per copy, consecutively: copies are
    // equal (value, target) pairs, so the runs stay sorted.
    std::vector<std::uint32_t> copies(data.num_rows(), 0);
    for (const std::uint32_t row : rows) {
      ADSE_REQUIRE_MSG(row < data.num_rows(), "row " << row << " out of range");
      copies[row]++;
    }
    for (std::size_t f = 0; f < data.num_features(); ++f) {
      SortedEntry* out = sorted.data() + f * m;
      for (const std::uint32_t row : order.feature(f)) {
        for (std::uint32_t c = 0; c < copies[row]; ++c) {
          *out++ = {data.x[row][f], data.y[row], row};
        }
      }
    }
  }

  const SortedEntry* run(std::size_t f, std::size_t begin) const {
    return sorted.data() + f * m + begin;
  }

  /// Splits node [begin, end) on x[row][feature] <= threshold; returns the
  /// first index of the right child.
  std::size_t partition(std::size_t begin, std::size_t end, int feature,
                        double threshold) {
    const auto f = static_cast<std::size_t>(feature);
    for (std::size_t i = begin; i < end; ++i) {
      const std::uint32_t row = indices[i];
      goes_left[row] = data.x[row][f] <= threshold ? 1 : 0;
    }
    const std::size_t n = end - begin;
    const std::size_t left =
        stable_split(indices.data() + begin, n, spill_rows.data(), goes_left,
                     [](std::uint32_t row) { return row; });
    for (std::size_t g = 0; g < data.num_features(); ++g) {
      stable_split(sorted.data() + g * m + begin, n, spill_entries.data(),
                   goes_left, [](const SortedEntry& e) { return e.row; });
    }
    return begin + left;
  }

  const Dataset& data;
  const std::size_t m;  ///< rows in the fit (with repeats)
  std::vector<std::uint32_t> indices;
  std::vector<SortedEntry> sorted;
  std::vector<std::uint8_t> goes_left;  ///< by dataset row id
  std::vector<std::uint32_t> spill_rows;
  std::vector<SortedEntry> spill_entries;
};

DecisionTreeRegressor::DecisionTreeRegressor(const TreeOptions& options)
    : options_(options) {
  ADSE_REQUIRE(options_.min_samples_split >= 2);
  ADSE_REQUIRE(options_.min_samples_leaf >= 1);
}

void DecisionTreeRegressor::fit(const Dataset& data) {
  ADSE_REQUIRE_MSG(data.num_rows() >= 1, "cannot fit on empty dataset");
  const FeatureOrder order(data);
  std::vector<std::uint32_t> rows(data.num_rows());
  std::iota(rows.begin(), rows.end(), 0U);
  fit(data, order, rows);
}

void DecisionTreeRegressor::fit(const Dataset& data, const FeatureOrder& order,
                                std::span<const std::uint32_t> rows) {
  ADSE_REQUIRE_MSG(!rows.empty(), "cannot fit on empty dataset");
  ADSE_REQUIRE_MSG(order.num_rows() == data.num_rows() &&
                       order.num_features() == data.num_features(),
                   "feature order was built for another dataset");
  nodes_.clear();
  num_features_ = data.num_features();
  Rng rng(options_.seed);
  Workspace ws(data, order, rows);
  root_ = build(ws, rng);
}

std::int32_t DecisionTreeRegressor::build(Workspace& ws, Rng& rng) {
  // Explicit work stack (an unconstrained tree can chain to depth ~n, which
  // would overflow the call stack on large campaigns).
  struct Work {
    std::size_t begin, end;
    int depth;
    std::int32_t parent;  // -1 for root
    bool is_left;
  };
  const Dataset& data = ws.data;
  const std::vector<std::uint32_t>& indices = ws.indices;
  std::vector<Work> stack;
  stack.push_back({0, ws.m, 0, -1, false});
  std::int32_t root = -1;

  while (!stack.empty()) {
    const Work w = stack.back();
    stack.pop_back();

    const std::size_t n = w.end - w.begin;
    Node node;
    node.n_samples = static_cast<std::uint32_t>(n);

    // Node statistics.
    double sum = 0.0, sum2 = 0.0;
    for (std::size_t i = w.begin; i < w.end; ++i) {
      const double y = data.y[indices[i]];
      sum += y;
      sum2 += y * y;
    }
    const double mean = sum / static_cast<double>(n);
    if (options_.criterion == Criterion::kMse) {
      node.value = mean;
      node.impurity = std::max(0.0, sum2 - sum * sum / static_cast<double>(n));
    } else {
      std::vector<double> ys;
      ys.reserve(n);
      for (std::size_t i = w.begin; i < w.end; ++i) ys.push_back(data.y[indices[i]]);
      node.value = median_of(ys);
      double dev = 0.0;
      for (double y : ys) dev += std::abs(y - node.value);
      node.impurity = dev;
    }

    BestSplit split;
    const bool can_split =
        static_cast<int>(n) >= options_.min_samples_split &&
        (options_.max_depth < 0 || w.depth < options_.max_depth) &&
        node.impurity > 1e-12;
    if (can_split) split = find_best_split(ws, w.begin, w.end, rng);

    const std::int32_t slot = static_cast<std::int32_t>(nodes_.size());
    nodes_.push_back(node);
    if (w.parent >= 0) {
      (w.is_left ? nodes_[w.parent].left : nodes_[w.parent].right) = slot;
    } else {
      root = slot;
    }

    if (!split.found || split.score >= node.impurity - 1e-12) continue;

    nodes_[slot].feature = split.feature;
    nodes_[slot].threshold = split.threshold;

    // Rows with feature <= threshold go left.
    const std::size_t cut =
        ws.partition(w.begin, w.end, split.feature, split.threshold);
    ADSE_REQUIRE_MSG(cut > w.begin && cut < w.end, "degenerate split");

    // Push right first so left is processed next (depth-first, left-major).
    stack.push_back({cut, w.end, w.depth + 1, slot, false});
    stack.push_back({w.begin, cut, w.depth + 1, slot, true});
  }
  return root;
}

DecisionTreeRegressor::BestSplit DecisionTreeRegressor::find_best_split(
    const Workspace& ws, std::size_t begin, std::size_t end, Rng& rng) const {
  const std::size_t n = end - begin;
  BestSplit best;
  best.score = std::numeric_limits<double>::infinity();

  std::vector<int> features(num_features_);
  std::iota(features.begin(), features.end(), 0);
  if (options_.max_features > 0 &&
      options_.max_features < static_cast<int>(features.size())) {
    // Random subsample (Extra-Trees style); order irrelevant.
    Rng& r = rng;
    for (int i = 0; i < options_.max_features; ++i) {
      const std::size_t j =
          static_cast<std::size_t>(i) +
          r.index(features.size() - static_cast<std::size_t>(i));
      std::swap(features[static_cast<std::size_t>(i)], features[j]);
    }
    features.resize(static_cast<std::size_t>(options_.max_features));
  }

  for (int f : features) {
    // The node's (feature value, y) pairs in ascending order.
    const SortedEntry* pairs = ws.run(static_cast<std::size_t>(f), begin);
    if (pairs[0].x == pairs[n - 1].x) continue;  // constant

    const int min_leaf = options_.min_samples_leaf;

    if (options_.criterion == Criterion::kMse) {
      // Prefix sums -> child SSE in O(1) per candidate.
      double left_sum = 0.0, left_sum2 = 0.0;
      double total_sum = 0.0, total_sum2 = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        total_sum += pairs[i].y;
        total_sum2 += pairs[i].y * pairs[i].y;
      }
      for (std::size_t i = 0; i + 1 < n; ++i) {
        left_sum += pairs[i].y;
        left_sum2 += pairs[i].y * pairs[i].y;
        const auto nl = static_cast<double>(i + 1);
        const auto nr = static_cast<double>(n - i - 1);
        if (static_cast<int>(i + 1) < min_leaf ||
            static_cast<int>(n - i - 1) < min_leaf) {
          continue;
        }
        if (pairs[i].x == pairs[i + 1].x) continue;
        const double sse_l = std::max(0.0, left_sum2 - left_sum * left_sum / nl);
        const double right_sum = total_sum - left_sum;
        const double right_sum2 = total_sum2 - left_sum2;
        const double sse_r =
            std::max(0.0, right_sum2 - right_sum * right_sum / nr);
        const double score = sse_l + sse_r;
        if (score < best.score) {
          best.found = true;
          best.feature = f;
          best.threshold = 0.5 * (pairs[i].x + pairs[i + 1].x);
          best.score = score;
        }
      }
    } else {
      // Exact MAE via rank-compressed order statistics.
      std::vector<double> rank_values;
      rank_values.reserve(n);
      for (std::size_t i = 0; i < n; ++i) rank_values.push_back(pairs[i].y);
      std::sort(rank_values.begin(), rank_values.end());
      rank_values.erase(std::unique(rank_values.begin(), rank_values.end()),
                        rank_values.end());
      auto rank_of = [&](double y) {
        return static_cast<std::size_t>(
            std::lower_bound(rank_values.begin(), rank_values.end(), y) -
            rank_values.begin());
      };
      OrderStats left(rank_values.size());
      OrderStats right(rank_values.size());
      left.attach_rank_values(&rank_values);
      right.attach_rank_values(&rank_values);
      for (std::size_t i = 0; i < n; ++i) {
        right.add(rank_of(pairs[i].y), pairs[i].y, +1);
      }

      for (std::size_t i = 0; i + 1 < n; ++i) {
        const std::size_t r = rank_of(pairs[i].y);
        left.add(r, pairs[i].y, +1);
        right.add(r, pairs[i].y, -1);
        if (static_cast<int>(i + 1) < min_leaf ||
            static_cast<int>(n - i - 1) < min_leaf) {
          continue;
        }
        if (pairs[i].x == pairs[i + 1].x) continue;
        const double score = left.abs_deviation_around_median() +
                             right.abs_deviation_around_median();
        if (score < best.score) {
          best.found = true;
          best.feature = f;
          best.threshold = 0.5 * (pairs[i].x + pairs[i + 1].x);
          best.score = score;
        }
      }
    }
  }
  return best;
}

double DecisionTreeRegressor::predict(const std::vector<double>& row) const {
  ADSE_REQUIRE_MSG(fitted(), "predict() before fit()");
  ADSE_REQUIRE_MSG(row.size() == num_features_,
                   "feature width " << row.size() << ", expected "
                                    << num_features_);
  std::int32_t node = root_;
  while (nodes_[static_cast<std::size_t>(node)].feature >= 0) {
    const Node& cur = nodes_[static_cast<std::size_t>(node)];
    node = (row[static_cast<std::size_t>(cur.feature)] <= cur.threshold)
               ? cur.left
               : cur.right;
  }
  return nodes_[static_cast<std::size_t>(node)].value;
}

std::vector<double> DecisionTreeRegressor::predict_all(
    const Dataset& data) const {
  std::vector<double> out;
  out.reserve(data.num_rows());
  for (const auto& row : data.x) out.push_back(predict(row));
  return out;
}

std::size_t DecisionTreeRegressor::num_leaves() const {
  std::size_t leaves = 0;
  for (const auto& node : nodes_) leaves += (node.feature < 0) ? 1 : 0;
  return leaves;
}

int DecisionTreeRegressor::depth_of(std::int32_t node) const {
  const Node& cur = nodes_[static_cast<std::size_t>(node)];
  if (cur.feature < 0) return 0;
  return 1 + std::max(depth_of(cur.left), depth_of(cur.right));
}

int DecisionTreeRegressor::depth() const {
  ADSE_REQUIRE(fitted());
  // Iterative depth (the tree can be deep on pathological data).
  std::vector<std::pair<std::int32_t, int>> stack{{root_, 0}};
  int deepest = 0;
  while (!stack.empty()) {
    const auto [slot, d] = stack.back();
    stack.pop_back();
    const Node& cur = nodes_[static_cast<std::size_t>(slot)];
    if (cur.feature < 0) {
      deepest = std::max(deepest, d);
    } else {
      stack.emplace_back(cur.left, d + 1);
      stack.emplace_back(cur.right, d + 1);
    }
  }
  return deepest;
}

std::vector<double> DecisionTreeRegressor::impurity_importance() const {
  ADSE_REQUIRE(fitted());
  std::vector<double> importance(num_features_, 0.0);
  for (const auto& node : nodes_) {
    if (node.feature < 0) continue;
    const Node& l = nodes_[static_cast<std::size_t>(node.left)];
    const Node& r = nodes_[static_cast<std::size_t>(node.right)];
    const double decrease = node.impurity - l.impurity - r.impurity;
    importance[static_cast<std::size_t>(node.feature)] += std::max(0.0, decrease);
  }
  double total = 0.0;
  for (double v : importance) total += v;
  if (total > 0.0) {
    for (double& v : importance) v /= total;
  }
  return importance;
}

std::string DecisionTreeRegressor::dump(
    int max_depth, const std::vector<std::string>& feature_names) const {
  ADSE_REQUIRE(fitted());
  std::ostringstream os;
  std::vector<std::tuple<std::int32_t, int>> stack;
  stack.emplace_back(root_, 0);
  while (!stack.empty()) {
    const auto [slot, d] = stack.back();
    stack.pop_back();
    const Node& cur = nodes_[static_cast<std::size_t>(slot)];
    os << std::string(static_cast<std::size_t>(d) * 2, ' ');
    if (cur.feature < 0 || d >= max_depth) {
      os << "value=" << cur.value << " (n=" << cur.n_samples << ")\n";
      continue;
    }
    const auto f = static_cast<std::size_t>(cur.feature);
    os << (f < feature_names.size() ? feature_names[f]
                                    : "x[" + std::to_string(cur.feature) + "]")
       << " <= " << cur.threshold << " (n=" << cur.n_samples << ")\n";
    stack.emplace_back(cur.right, d + 1);
    stack.emplace_back(cur.left, d + 1);
  }
  return os.str();
}

}  // namespace adse::ml
