#include "ml/decision_tree.hpp"

#include <algorithm>
#include <cassert>
#include <functional>

namespace mvs::ml {

namespace {

double gini(std::size_t pos, std::size_t total) {
  if (total == 0) return 0.0;
  const double p = static_cast<double>(pos) / static_cast<double>(total);
  return 2.0 * p * (1.0 - p);
}

}  // namespace

std::unique_ptr<DecisionTree::Node> DecisionTree::build(
    const std::vector<Feature>& xs, const std::vector<int>& labels,
    std::vector<std::size_t> idx, int depth) const {
  auto node = std::make_unique<Node>();
  std::size_t pos = 0;
  for (std::size_t i : idx) pos += static_cast<std::size_t>(labels[i]);
  node->positive_fraction =
      idx.empty() ? 0.0
                  : static_cast<double>(pos) / static_cast<double>(idx.size());

  const bool pure = (pos == 0 || pos == idx.size());
  if (depth >= cfg_.max_depth || idx.size() <= cfg_.min_leaf || pure)
    return node;

  const std::size_t dim = xs.front().size();
  double best_gain = 1e-9;
  int best_feature = -1;
  double best_threshold = 0.0;
  const double parent = gini(pos, idx.size());

  for (std::size_t d = 0; d < dim; ++d) {
    std::vector<std::size_t> sorted = idx;
    std::sort(sorted.begin(), sorted.end(), [&](std::size_t a, std::size_t b) {
      return xs[a][d] < xs[b][d];
    });
    std::size_t left_pos = 0;
    for (std::size_t i = 0; i + 1 < sorted.size(); ++i) {
      left_pos += static_cast<std::size_t>(labels[sorted[i]]);
      const double a = xs[sorted[i]][d];
      const double b = xs[sorted[i + 1]][d];
      if (b <= a) continue;  // no separating threshold between equal values
      const std::size_t nl = i + 1;
      const std::size_t nr = sorted.size() - nl;
      const double wl = static_cast<double>(nl) / static_cast<double>(sorted.size());
      const double child = wl * gini(left_pos, nl) +
                           (1.0 - wl) * gini(pos - left_pos, nr);
      const double gain = parent - child;
      if (gain > best_gain) {
        best_gain = gain;
        best_feature = static_cast<int>(d);
        best_threshold = (a + b) / 2.0;
      }
    }
  }

  if (best_feature < 0) return node;

  std::vector<std::size_t> left_idx, right_idx;
  for (std::size_t i : idx) {
    (xs[i][static_cast<std::size_t>(best_feature)] <= best_threshold
         ? left_idx
         : right_idx)
        .push_back(i);
  }
  if (left_idx.empty() || right_idx.empty()) return node;

  node->feature = best_feature;
  node->threshold = best_threshold;
  node->left = build(xs, labels, std::move(left_idx), depth + 1);
  node->right = build(xs, labels, std::move(right_idx), depth + 1);
  return node;
}

void DecisionTree::fit(const std::vector<Feature>& xs,
                       const std::vector<int>& labels) {
  assert(xs.size() == labels.size() && !xs.empty());
  std::vector<std::size_t> idx(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) idx[i] = i;
  root_ = build(xs, labels, std::move(idx), 0);
}

const DecisionTree::Node* DecisionTree::leaf_for(const Feature& x) const {
  assert(root_);
  const Node* n = root_.get();
  while (n->feature >= 0) {
    n = (x[static_cast<std::size_t>(n->feature)] <= n->threshold)
            ? n->left.get()
            : n->right.get();
  }
  return n;
}

bool DecisionTree::predict(const Feature& x) const {
  return leaf_for(x)->positive_fraction > 0.5;
}

double DecisionTree::decision(const Feature& x) const {
  return leaf_for(x)->positive_fraction - 0.5;
}

std::vector<DecisionTree::FlatNode> DecisionTree::flatten() const {
  std::vector<FlatNode> out;
  std::function<int(const Node*)> rec = [&](const Node* n) -> int {
    const int index = static_cast<int>(out.size());
    out.push_back(FlatNode{n->feature, n->threshold, n->positive_fraction,
                           -1, -1});
    if (n->feature >= 0) {
      out[static_cast<std::size_t>(index)].left = rec(n->left.get());
      out[static_cast<std::size_t>(index)].right = rec(n->right.get());
    }
    return index;
  };
  if (root_) rec(root_.get());
  return out;
}

}  // namespace mvs::ml
