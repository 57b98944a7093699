// CNN_LSTM binary classifier, the deep-learning entry of the paper's
// algorithm portability study (Fig. 10/14).
//
// Architecture (per sample, a T x F feature sequence flattened row-major
// into one Matrix row): Conv1D (kernel 3, same padding) + ReLU -> LSTM ->
// last hidden state -> Dense -> sigmoid. Trained with mini-batch Adam on
// binary cross-entropy. Input standardization is internal.
//
// Everything is implemented from scratch (no BLAS): explicit forward and
// backward passes with per-gate LSTM BPTT.
#pragma once

#include "data/scaler.hpp"
#include "ml/model.hpp"

#include <vector>

namespace mfpa::ml {

/// Hyperparams: "timesteps" (required, T), "channels" (16), "hidden" (24),
/// "kernel" (3), "epochs" (12), "batch" (64), "lr" (2e-3), "seed" (1).
class CnnLstmClassifier final : public Classifier {
 public:
  explicit CnnLstmClassifier(Hyperparams params = {});

  void fit(const Matrix& X, const std::vector<int>& y) override;
  std::vector<double> predict_proba(const Matrix& X) const override;
  std::string name() const override { return "CNN_LSTM"; }
  std::unique_ptr<Classifier> clone_unfitted() const override;
  const Hyperparams& hyperparams() const override { return params_; }
  void save_state(std::ostream& os) const override;
  void load_state(std::istream& is) override;

 private:
  Hyperparams params_;
  int T_ = 0;       ///< timesteps
  int F_ = 0;       ///< features per step (derived at fit)
  int C_ = 16;      ///< conv channels
  int H_ = 24;      ///< lstm hidden size
  int K_ = 3;       ///< conv kernel
  data::StandardScaler scaler_;

  // Parameters (flat, layout documented in the .cpp).
  std::vector<double> conv_w_;   // [C][F][K]
  std::vector<double> conv_b_;   // [C]
  std::vector<double> lstm_wx_;  // [4H][C]
  std::vector<double> lstm_wh_;  // [4H][H]
  std::vector<double> lstm_b_;   // [4H]
  std::vector<double> dense_w_;  // [H]
  double dense_b_ = 0.0;
  bool fitted_ = false;

  struct Cache;      ///< per-sample forward activations for backprop
  struct Gradients;  ///< parameter-gradient accumulator
  double forward(std::span<const double> x, Cache* cache) const;
  void backward(std::span<const double> x, const Cache& cache, double grad_out,
                Gradients& grads) const;
};

}  // namespace mfpa::ml
