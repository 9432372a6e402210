#include "ml/logistic.hpp"

#include <cassert>
#include <cmath>

namespace mvs::ml {

namespace {
double sigmoid(double z) { return 1.0 / (1.0 + std::exp(-z)); }
}  // namespace

void LogisticRegression::fit(const std::vector<Feature>& xs,
                             const std::vector<int>& labels) {
  assert(xs.size() == labels.size() && !xs.empty());
  scaler_.fit(xs);
  const std::vector<Feature> sx = scaler_.transform_all(xs);
  const std::size_t dim = sx.front().size();
  weights_.assign(dim + 1, 0.0);

  util::Rng rng(cfg_.seed);
  for (int epoch = 0; epoch < cfg_.epochs; ++epoch) {
    const double lr =
        cfg_.learning_rate / (1.0 + 0.02 * static_cast<double>(epoch));
    for (std::size_t i : rng.permutation(sx.size())) {
      double z = weights_[dim];
      for (std::size_t d = 0; d < dim; ++d) z += weights_[d] * sx[i][d];
      const double err = sigmoid(z) - static_cast<double>(labels[i]);
      for (std::size_t d = 0; d < dim; ++d)
        weights_[d] -= lr * (err * sx[i][d] + cfg_.l2 * weights_[d]);
      weights_[dim] -= lr * err;
    }
  }
}

double LogisticRegression::decision(const Feature& x) const {
  assert(!weights_.empty());
  const Feature q = scaler_.transform(x);
  double z = weights_.back();
  for (std::size_t d = 0; d < q.size(); ++d) z += weights_[d] * q[d];
  return z;
}

bool LogisticRegression::predict(const Feature& x) const {
  return decision(x) > 0.0;
}

}  // namespace mvs::ml
