#include "ml/cnn_lstm.hpp"

#include "ml/serialize.hpp"

#include <istream>
#include <ostream>

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/rng.hpp"

// Parameter layouts (all row-major):
//   conv_w_[(c*F + f)*K + k]  : channel c, input feature f, kernel tap k
//   lstm_wx_[g*C + c]         : gate row g in [0,4H), conv-channel input c
//   lstm_wh_[g*H + h]         : gate row g, previous-hidden h
//   gates per step, order     : i (input), f (forget), g (cell), o (output)

namespace mfpa::ml {
namespace {

double sigmoid(double z) noexcept {
  if (z >= 0.0) {
    const double e = std::exp(-z);
    return 1.0 / (1.0 + e);
  }
  const double e = std::exp(z);
  return e / (1.0 + e);
}

}  // namespace

struct CnnLstmClassifier::Cache {
  // conv pre-activation not needed (ReLU mask from output), post-ReLU kept.
  std::vector<double> conv_out;  // [T][C]
  std::vector<double> gates;     // [T][4H] post-activation (i,f,g,o)
  std::vector<double> cells;     // [T][H] cell states
  std::vector<double> hiddens;   // [T][H] hidden states
  double prob = 0.0;
};

struct CnnLstmClassifier::Gradients {
  std::vector<double> conv_w, conv_b, lstm_wx, lstm_wh, lstm_b, dense_w;
  double dense_b = 0.0;

  void resize_like(const CnnLstmClassifier& m) {
    conv_w.assign(m.conv_w_.size(), 0.0);
    conv_b.assign(m.conv_b_.size(), 0.0);
    lstm_wx.assign(m.lstm_wx_.size(), 0.0);
    lstm_wh.assign(m.lstm_wh_.size(), 0.0);
    lstm_b.assign(m.lstm_b_.size(), 0.0);
    dense_w.assign(m.dense_w_.size(), 0.0);
    dense_b = 0.0;
  }
};

CnnLstmClassifier::CnnLstmClassifier(Hyperparams params)
    : params_(std::move(params)) {
  T_ = static_cast<int>(param_or(params_, "timesteps", 0));
  C_ = static_cast<int>(param_or(params_, "channels", 16));
  H_ = static_cast<int>(param_or(params_, "hidden", 24));
  K_ = static_cast<int>(param_or(params_, "kernel", 3));
  if (K_ % 2 == 0) {
    throw std::invalid_argument("CnnLstmClassifier: kernel must be odd");
  }
}

double CnnLstmClassifier::forward(std::span<const double> x,
                                  Cache* cache) const {
  const int T = T_, F = F_, C = C_, H = H_, K = K_;
  const int pad = K / 2;
  std::vector<double> conv_out(static_cast<std::size_t>(T) * C, 0.0);
  for (int t = 0; t < T; ++t) {
    for (int c = 0; c < C; ++c) {
      double acc = conv_b_[static_cast<std::size_t>(c)];
      for (int k = 0; k < K; ++k) {
        const int src = t + k - pad;
        if (src < 0 || src >= T) continue;
        const double* wrow = &conv_w_[(static_cast<std::size_t>(c) * F) * K];
        for (int f = 0; f < F; ++f) {
          acc += wrow[static_cast<std::size_t>(f) * K + k] *
                 x[static_cast<std::size_t>(src) * F + f];
        }
      }
      conv_out[static_cast<std::size_t>(t) * C + c] = acc > 0.0 ? acc : 0.0;
    }
  }

  std::vector<double> gates(static_cast<std::size_t>(T) * 4 * H, 0.0);
  std::vector<double> cells(static_cast<std::size_t>(T) * H, 0.0);
  std::vector<double> hiddens(static_cast<std::size_t>(T) * H, 0.0);
  std::vector<double> h_prev(static_cast<std::size_t>(H), 0.0);
  std::vector<double> c_prev(static_cast<std::size_t>(H), 0.0);

  for (int t = 0; t < T; ++t) {
    const double* xt = &conv_out[static_cast<std::size_t>(t) * C];
    double* gate_t = &gates[static_cast<std::size_t>(t) * 4 * H];
    for (int g = 0; g < 4 * H; ++g) {
      double acc = lstm_b_[static_cast<std::size_t>(g)];
      const double* wx = &lstm_wx_[static_cast<std::size_t>(g) * C];
      for (int c = 0; c < C; ++c) acc += wx[c] * xt[c];
      const double* wh = &lstm_wh_[static_cast<std::size_t>(g) * H];
      for (int h = 0; h < H; ++h) acc += wh[h] * h_prev[static_cast<std::size_t>(h)];
      gate_t[g] = acc;
    }
    for (int h = 0; h < H; ++h) {
      const double i = sigmoid(gate_t[h]);
      const double f = sigmoid(gate_t[H + h]);
      const double g = std::tanh(gate_t[2 * H + h]);
      const double o = sigmoid(gate_t[3 * H + h]);
      const double c_new = f * c_prev[static_cast<std::size_t>(h)] + i * g;
      const double h_new = o * std::tanh(c_new);
      gate_t[h] = i;
      gate_t[H + h] = f;
      gate_t[2 * H + h] = g;
      gate_t[3 * H + h] = o;
      cells[static_cast<std::size_t>(t) * H + h] = c_new;
      hiddens[static_cast<std::size_t>(t) * H + h] = h_new;
      c_prev[static_cast<std::size_t>(h)] = c_new;
      h_prev[static_cast<std::size_t>(h)] = h_new;
    }
  }

  double z = dense_b_;
  for (int h = 0; h < H; ++h) z += dense_w_[static_cast<std::size_t>(h)] * h_prev[static_cast<std::size_t>(h)];
  const double prob = sigmoid(z);

  if (cache != nullptr) {
    cache->conv_out = std::move(conv_out);
    cache->gates = std::move(gates);
    cache->cells = std::move(cells);
    cache->hiddens = std::move(hiddens);
    cache->prob = prob;
  }
  return prob;
}

void CnnLstmClassifier::backward(std::span<const double> x, const Cache& cache,
                                 double grad_out, Gradients& grads) const {
  const int T = T_, F = F_, C = C_, H = H_, K = K_;
  const int pad = K / 2;

  // Dense layer. grad_out = dL/dz (already through the sigmoid+BCE).
  const double* h_last = &cache.hiddens[static_cast<std::size_t>(T - 1) * H];
  std::vector<double> dh(static_cast<std::size_t>(H), 0.0);
  for (int h = 0; h < H; ++h) {
    grads.dense_w[static_cast<std::size_t>(h)] += grad_out * h_last[h];
    dh[static_cast<std::size_t>(h)] = grad_out * dense_w_[static_cast<std::size_t>(h)];
  }
  grads.dense_b += grad_out;

  // LSTM BPTT.
  std::vector<double> dc(static_cast<std::size_t>(H), 0.0);
  std::vector<double> dconv(static_cast<std::size_t>(T) * C, 0.0);
  std::vector<double> dgate(static_cast<std::size_t>(4) * H, 0.0);
  for (int t = T - 1; t >= 0; --t) {
    const double* gate_t = &cache.gates[static_cast<std::size_t>(t) * 4 * H];
    const double* cell_t = &cache.cells[static_cast<std::size_t>(t) * H];
    const double* c_prev =
        t > 0 ? &cache.cells[static_cast<std::size_t>(t - 1) * H] : nullptr;
    const double* h_prev =
        t > 0 ? &cache.hiddens[static_cast<std::size_t>(t - 1) * H] : nullptr;

    for (int h = 0; h < H; ++h) {
      const double i = gate_t[h];
      const double f = gate_t[H + h];
      const double g = gate_t[2 * H + h];
      const double o = gate_t[3 * H + h];
      const double c_val = cell_t[h];
      const double tanh_c = std::tanh(c_val);
      const double dh_h = dh[static_cast<std::size_t>(h)];

      const double do_ = dh_h * tanh_c;
      double dc_h = dh_h * o * (1.0 - tanh_c * tanh_c) + dc[static_cast<std::size_t>(h)];
      const double di = dc_h * g;
      const double dg = dc_h * i;
      const double df = c_prev != nullptr ? dc_h * c_prev[h] : 0.0;
      dc[static_cast<std::size_t>(h)] = dc_h * f;  // to t-1

      dgate[static_cast<std::size_t>(h)] = di * i * (1.0 - i);
      dgate[static_cast<std::size_t>(H + h)] = df * f * (1.0 - f);
      dgate[static_cast<std::size_t>(2 * H + h)] = dg * (1.0 - g * g);
      dgate[static_cast<std::size_t>(3 * H + h)] = do_ * o * (1.0 - o);
    }

    const double* xt = &cache.conv_out[static_cast<std::size_t>(t) * C];
    std::fill(dh.begin(), dh.end(), 0.0);
    for (int g = 0; g < 4 * H; ++g) {
      const double dg_val = dgate[static_cast<std::size_t>(g)];
      if (dg_val == 0.0) continue;
      grads.lstm_b[static_cast<std::size_t>(g)] += dg_val;
      double* gwx = &grads.lstm_wx[static_cast<std::size_t>(g) * C];
      const double* wx = &lstm_wx_[static_cast<std::size_t>(g) * C];
      double* dxt = &dconv[static_cast<std::size_t>(t) * C];
      for (int c = 0; c < C; ++c) {
        gwx[c] += dg_val * xt[c];
        dxt[c] += dg_val * wx[c];
      }
      if (h_prev != nullptr) {
        double* gwh = &grads.lstm_wh[static_cast<std::size_t>(g) * H];
        const double* wh = &lstm_wh_[static_cast<std::size_t>(g) * H];
        for (int h = 0; h < H; ++h) {
          gwh[h] += dg_val * h_prev[h];
          dh[static_cast<std::size_t>(h)] += dg_val * wh[h];
        }
      } else {
        double* gwh = &grads.lstm_wh[static_cast<std::size_t>(g) * H];
        (void)gwh;  // h_{-1} = 0: no wh gradient contribution at t = 0
      }
    }
  }

  // Conv layer (through the ReLU mask).
  for (int t = 0; t < T; ++t) {
    for (int c = 0; c < C; ++c) {
      if (cache.conv_out[static_cast<std::size_t>(t) * C + c] <= 0.0) continue;
      const double d = dconv[static_cast<std::size_t>(t) * C + c];
      if (d == 0.0) continue;
      grads.conv_b[static_cast<std::size_t>(c)] += d;
      for (int k = 0; k < K; ++k) {
        const int src = t + k - pad;
        if (src < 0 || src >= T) continue;
        double* gw = &grads.conv_w[(static_cast<std::size_t>(c) * F) * K];
        for (int f = 0; f < F; ++f) {
          gw[static_cast<std::size_t>(f) * K + k] +=
              d * x[static_cast<std::size_t>(src) * F + f];
        }
      }
    }
  }
}

void CnnLstmClassifier::fit(const Matrix& X, const std::vector<int>& y) {
  validate_fit_args(X, y);
  if (T_ <= 0) {
    throw std::invalid_argument(
        "CnnLstmClassifier: 'timesteps' hyperparameter is required");
  }
  if (X.cols() % static_cast<std::size_t>(T_) != 0) {
    throw std::invalid_argument(
        "CnnLstmClassifier: columns not divisible by timesteps");
  }
  F_ = static_cast<int>(X.cols()) / T_;

  const int epochs = static_cast<int>(param_or(params_, "epochs", 12));
  const std::size_t batch =
      static_cast<std::size_t>(param_or(params_, "batch", 64));
  const double lr = param_or(params_, "lr", 2e-3);
  Rng rng(static_cast<std::uint64_t>(param_or(params_, "seed", 1)));

  const Matrix Xs = scaler_.fit_transform(X);
  const std::size_t n = Xs.rows();

  // Glorot-style initialization.
  auto init = [&rng](std::vector<double>& w, std::size_t size, double fan) {
    const double scale = std::sqrt(1.0 / std::max(1.0, fan));
    w.resize(size);
    for (auto& v : w) v = rng.normal(0.0, scale);
  };
  init(conv_w_, static_cast<std::size_t>(C_) * F_ * K_,
       static_cast<double>(F_ * K_));
  conv_b_.assign(static_cast<std::size_t>(C_), 0.0);
  init(lstm_wx_, static_cast<std::size_t>(4 * H_) * C_, static_cast<double>(C_));
  init(lstm_wh_, static_cast<std::size_t>(4 * H_) * H_, static_cast<double>(H_));
  lstm_b_.assign(static_cast<std::size_t>(4 * H_), 0.0);
  // Forget-gate bias at 1.0 (standard trick for gradient flow).
  for (int h = 0; h < H_; ++h) lstm_b_[static_cast<std::size_t>(H_ + h)] = 1.0;
  init(dense_w_, static_cast<std::size_t>(H_), static_cast<double>(H_));
  dense_b_ = 0.0;

  // Adam state.
  Gradients grads, m, v;
  grads.resize_like(*this);
  m.resize_like(*this);
  v.resize_like(*this);
  double m_b = 0.0, v_b = 0.0;
  constexpr double kBeta1 = 0.9, kBeta2 = 0.999, kEps = 1e-8;
  std::size_t step = 0;

  auto adam_update = [&](std::vector<double>& w, std::vector<double>& gw,
                         std::vector<double>& mw, std::vector<double>& vw,
                         double corrected_lr, double inv_batch) {
    for (std::size_t i = 0; i < w.size(); ++i) {
      const double g = gw[i] * inv_batch;
      mw[i] = kBeta1 * mw[i] + (1.0 - kBeta1) * g;
      vw[i] = kBeta2 * vw[i] + (1.0 - kBeta2) * g * g;
      w[i] -= corrected_lr * mw[i] / (std::sqrt(vw[i]) + kEps);
      gw[i] = 0.0;
    }
  };

  Cache cache;
  for (int epoch = 0; epoch < epochs; ++epoch) {
    const auto order = rng.permutation(n);
    for (std::size_t start = 0; start < n; start += batch) {
      const std::size_t stop = std::min(start + batch, n);
      for (std::size_t k = start; k < stop; ++k) {
        const auto row = Xs.row(order[k]);
        const double prob = forward(row, &cache);
        // dBCE/dz for sigmoid output.
        const double grad_out = prob - static_cast<double>(y[order[k]]);
        backward(row, cache, grad_out, grads);
      }
      ++step;
      const double bias_corr =
          std::sqrt(1.0 - std::pow(kBeta2, static_cast<double>(step))) /
          (1.0 - std::pow(kBeta1, static_cast<double>(step)));
      const double clr = lr * bias_corr;
      const double inv_batch = 1.0 / static_cast<double>(stop - start);
      adam_update(conv_w_, grads.conv_w, m.conv_w, v.conv_w, clr, inv_batch);
      adam_update(conv_b_, grads.conv_b, m.conv_b, v.conv_b, clr, inv_batch);
      adam_update(lstm_wx_, grads.lstm_wx, m.lstm_wx, v.lstm_wx, clr, inv_batch);
      adam_update(lstm_wh_, grads.lstm_wh, m.lstm_wh, v.lstm_wh, clr, inv_batch);
      adam_update(lstm_b_, grads.lstm_b, m.lstm_b, v.lstm_b, clr, inv_batch);
      adam_update(dense_w_, grads.dense_w, m.dense_w, v.dense_w, clr, inv_batch);
      {
        const double g = grads.dense_b * inv_batch;
        m_b = kBeta1 * m_b + (1.0 - kBeta1) * g;
        v_b = kBeta2 * v_b + (1.0 - kBeta2) * g * g;
        dense_b_ -= clr * m_b / (std::sqrt(v_b) + kEps);
        grads.dense_b = 0.0;
      }
    }
  }
  fitted_ = true;
}

std::vector<double> CnnLstmClassifier::predict_proba(const Matrix& X) const {
  if (!fitted_) throw std::logic_error("CnnLstmClassifier: predict before fit");
  const Matrix Xs = scaler_.transform(X);
  std::vector<double> out(Xs.rows());
  for (std::size_t r = 0; r < Xs.rows(); ++r) {
    out[r] = forward(Xs.row(r), nullptr);
  }
  return out;
}

std::unique_ptr<Classifier> CnnLstmClassifier::clone_unfitted() const {
  return std::make_unique<CnnLstmClassifier>(params_);
}

void CnnLstmClassifier::save_state(std::ostream& os) const {
  if (!fitted_) throw std::logic_error("CnnLstmClassifier: save before fit");
  os << "cnn_lstm " << T_ << ' ' << F_ << ' ' << C_ << ' ' << H_ << ' ' << K_
     << '\n';
  io::write_vector(os, "scaler_mean", scaler_.means());
  io::write_vector(os, "scaler_std", scaler_.stddevs());
  io::write_vector(os, "conv_w", conv_w_);
  io::write_vector(os, "conv_b", conv_b_);
  io::write_vector(os, "lstm_wx", lstm_wx_);
  io::write_vector(os, "lstm_wh", lstm_wh_);
  io::write_vector(os, "lstm_b", lstm_b_);
  io::write_vector(os, "dense_w", dense_w_);
  io::write_vector(os, "dense_b", std::vector<double>{dense_b_});
}

void CnnLstmClassifier::load_state(std::istream& is) {
  io::expect_token(is, "cnn_lstm");
  if (!(is >> T_ >> F_ >> C_ >> H_ >> K_) || T_ <= 0 || F_ <= 0 || C_ <= 0 ||
      H_ <= 0 || K_ <= 0) {
    throw std::runtime_error("CnnLstmClassifier: bad architecture header");
  }
  auto means = io::read_vector(is, "scaler_mean");
  auto stds = io::read_vector(is, "scaler_std");
  scaler_.set_state(std::move(means), std::move(stds));
  conv_w_ = io::read_vector(is, "conv_w");
  conv_b_ = io::read_vector(is, "conv_b");
  lstm_wx_ = io::read_vector(is, "lstm_wx");
  lstm_wh_ = io::read_vector(is, "lstm_wh");
  lstm_b_ = io::read_vector(is, "lstm_b");
  dense_w_ = io::read_vector(is, "dense_w");
  const auto db = io::read_vector(is, "dense_b");
  const auto C = static_cast<std::size_t>(C_);
  const auto H = static_cast<std::size_t>(H_);
  if (db.size() != 1 ||
      conv_w_.size() != C * static_cast<std::size_t>(F_ * K_) ||
      conv_b_.size() != C || lstm_wx_.size() != 4 * H * C ||
      lstm_wh_.size() != 4 * H * H || lstm_b_.size() != 4 * H ||
      dense_w_.size() != H) {
    throw std::runtime_error("CnnLstmClassifier: inconsistent state sizes");
  }
  dense_b_ = db[0];
  fitted_ = true;
}

}  // namespace mfpa::ml
