#include "ml/model.hpp"

#include <stdexcept>

namespace mfpa::ml {

double param_or(const Hyperparams& params, const std::string& key,
                double fallback) {
  const auto it = params.find(key);
  return it == params.end() ? fallback : it->second;
}

void Classifier::validate_fit_args(const Matrix& X, const std::vector<int>& y) {
  if (X.rows() != y.size()) {
    throw std::invalid_argument("Classifier::fit: X/y size mismatch");
  }
  if (X.rows() == 0) {
    throw std::invalid_argument("Classifier::fit: empty training set");
  }
  for (int label : y) {
    if (label != 0 && label != 1) {
      throw std::invalid_argument("Classifier::fit: labels must be 0/1");
    }
  }
}

}  // namespace mfpa::ml
