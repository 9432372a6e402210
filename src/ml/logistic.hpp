#pragma once
// Logistic-regression baseline for the association classifier (Fig. 10),
// trained with mini-batch-free SGD + L2 regularization.

#include "ml/model.hpp"
#include "ml/scaler.hpp"
#include "util/rng.hpp"

namespace mvs::ml {

class LogisticRegression final : public BinaryClassifier {
 public:
  struct Config {
    int epochs = 200;
    double learning_rate = 0.1;
    double l2 = 1e-4;
    std::uint64_t seed = 7;
  };

  LogisticRegression() = default;
  explicit LogisticRegression(Config cfg) : cfg_(cfg) {}

  void fit(const std::vector<Feature>& xs,
           const std::vector<int>& labels) override;
  bool predict(const Feature& x) const override;
  double decision(const Feature& x) const override;

  /// Fitted parameters (model export): weights in SCALED feature space with
  /// the bias as the last entry, and the scaler that defines that space.
  const Feature& raw_weights() const { return weights_; }
  const StandardScaler& scaler() const { return scaler_; }

 private:
  Config cfg_{};
  StandardScaler scaler_;
  Feature weights_;  // last entry is the bias
};

}  // namespace mvs::ml
