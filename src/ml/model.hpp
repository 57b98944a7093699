// Classifier abstraction shared by every learning algorithm in the library.
//
// All models are binary classifiers over dense double features; fit() learns
// from a Matrix + 0/1 labels, predict_proba() returns P(y = 1) per row.
// Hyperparameters travel as a name -> double map so grid search and the
// model factory can stay algorithm-agnostic.
#pragma once

#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "data/matrix.hpp"

namespace mfpa::ml {

using data::Matrix;

/// Flat hyperparameter bundle (all values numeric; booleans as 0/1).
using Hyperparams = std::map<std::string, double>;

/// Reads a hyperparameter with a default.
double param_or(const Hyperparams& params, const std::string& key,
                double fallback);

/// Abstract binary classifier.
class Classifier {
 public:
  virtual ~Classifier() = default;

  /// Trains on X (n x d) with labels y in {0,1} (size n).
  /// Throws std::invalid_argument on shape/label violations.
  virtual void fit(const Matrix& X, const std::vector<int>& y) = 0;

  /// P(y=1) per row; requires a prior successful fit().
  virtual std::vector<double> predict_proba(const Matrix& X) const = 0;

  /// Algorithm name ("RF", "GBDT", ...).
  virtual std::string name() const = 0;

  /// Fresh, unfitted copy with identical hyperparameters (for CV folds).
  virtual std::unique_ptr<Classifier> clone_unfitted() const = 0;

  /// Construction-time hyperparameters (serialized alongside the state).
  virtual const Hyperparams& hyperparams() const = 0;

  /// Writes the learned state (serialize.hpp framing handles the header).
  /// Requires a prior successful fit(); throws std::logic_error otherwise.
  virtual void save_state(std::ostream& os) const = 0;

  /// Restores state written by save_state on a model constructed with the
  /// same hyperparameters. Throws std::runtime_error on malformed input.
  virtual void load_state(std::istream& is) = 0;

 protected:
  /// Shared precondition checks for fit().
  static void validate_fit_args(const Matrix& X, const std::vector<int>& y);
};

}  // namespace mfpa::ml
