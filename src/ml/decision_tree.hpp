#pragma once
// CART decision-tree baseline for the association classifier (Fig. 10):
// binary axis-aligned splits chosen by Gini impurity, depth-limited.

#include <memory>

#include "ml/model.hpp"

namespace mvs::ml {

class DecisionTree final : public BinaryClassifier {
 public:
  struct Config {
    int max_depth = 8;
    std::size_t min_leaf = 4;
  };

  DecisionTree() = default;
  explicit DecisionTree(Config cfg) : cfg_(cfg) {}

  void fit(const std::vector<Feature>& xs,
           const std::vector<int>& labels) override;
  bool predict(const Feature& x) const override;
  double decision(const Feature& x) const override;

  /// Flattened tree node (model export): interior nodes have feature >= 0
  /// and child indices pointing strictly FORWARD in the flattened array
  /// (pre-order), leaves have feature == -1.
  struct FlatNode {
    int feature = -1;
    double threshold = 0.0;
    double positive_fraction = 0.0;
    int left = -1;
    int right = -1;
  };

  /// Pre-order flattening of the fitted tree; empty before fit().
  std::vector<FlatNode> flatten() const;

 private:
  struct Node {
    int feature = -1;       // -1 => leaf
    double threshold = 0.0;  // go left if x[feature] <= threshold
    double positive_fraction = 0.0;
    std::unique_ptr<Node> left;
    std::unique_ptr<Node> right;
  };

  std::unique_ptr<Node> build(const std::vector<Feature>& xs,
                              const std::vector<int>& labels,
                              std::vector<std::size_t> idx, int depth) const;
  const Node* leaf_for(const Feature& x) const;

  Config cfg_{};
  std::unique_ptr<Node> root_;
};

}  // namespace mvs::ml
