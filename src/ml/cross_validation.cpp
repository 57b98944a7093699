#include "ml/cross_validation.hpp"

#include <algorithm>
#include <memory>
#include <numeric>
#include <stdexcept>

#include "ml/binned_support.hpp"
#include "ml/metrics.hpp"

namespace mfpa::ml {

std::vector<Split> kfold_splits(std::size_t n, std::size_t k,
                                std::uint64_t seed) {
  if (k < 2 || n < k) {
    throw std::invalid_argument("kfold_splits: need 2 <= k <= n");
  }
  Rng rng(seed);
  const auto order = rng.permutation(n);
  std::vector<Split> splits(k);
  for (std::size_t fold = 0; fold < k; ++fold) {
    const std::size_t lo = fold * n / k;
    const std::size_t hi = (fold + 1) * n / k;
    auto& s = splits[fold];
    s.validation.assign(order.begin() + static_cast<std::ptrdiff_t>(lo),
                        order.begin() + static_cast<std::ptrdiff_t>(hi));
    s.train.reserve(n - (hi - lo));
    s.train.insert(s.train.end(), order.begin(),
                   order.begin() + static_cast<std::ptrdiff_t>(lo));
    s.train.insert(s.train.end(),
                   order.begin() + static_cast<std::ptrdiff_t>(hi), order.end());
  }
  return splits;
}

std::vector<Split> time_series_splits(std::size_t n, std::size_t k) {
  if (k < 1 || n < 2 * k) {
    throw std::invalid_argument("time_series_splits: need n >= 2k, k >= 1");
  }
  const std::size_t subsets = 2 * k;
  auto subset_range = [&](std::size_t s) {
    return std::pair{s * n / subsets, (s + 1) * n / subsets};
  };
  std::vector<Split> splits(k);
  for (std::size_t i = 0; i < k; ++i) {
    auto& s = splits[i];
    const auto [train_lo, unused] = subset_range(i);
    (void)unused;
    const auto [train_hi_lo, train_hi] = subset_range(i + k - 1);
    (void)train_hi_lo;
    const auto [val_lo, val_hi] = subset_range(i + k);
    s.train.resize(train_hi - train_lo);
    std::iota(s.train.begin(), s.train.end(), train_lo);
    s.validation.resize(val_hi - val_lo);
    std::iota(s.validation.begin(), s.validation.end(), val_lo);
  }
  return splits;
}

double cross_val_score(const Classifier& prototype, const data::Matrix& X,
                       const std::vector<int>& y,
                       const std::vector<Split>& splits, CvMetric metric) {
  return cross_val_score(prototype, build_cv_cache(X, y, splits, false),
                         metric);
}

CvCache build_cv_cache(const data::Matrix& X, const std::vector<int>& y,
                       const std::vector<Split>& splits, bool with_bins,
                       std::size_t max_bins) {
  if (splits.empty()) throw std::invalid_argument("cross_val_score: no splits");
  CvCache cache;
  cache.folds.reserve(splits.size());
  for (const auto& split : splits) {
    auto& fold = cache.folds.emplace_back();
    // A fold whose training slice lacks one class cannot be fit; mark it
    // unusable (can happen with extreme imbalance in early time-series folds).
    bool has_pos = false, has_neg = false;
    fold.y_train.reserve(split.train.size());
    for (std::size_t i : split.train) {
      fold.y_train.push_back(y[i]);
      (y[i] == 1 ? has_pos : has_neg) = true;
    }
    fold.usable = has_pos && has_neg;
    if (!fold.usable) continue;
    fold.X_train = X.select_rows(split.train);
    fold.X_val = X.select_rows(split.validation);
    fold.y_val.reserve(split.validation.size());
    for (std::size_t i : split.validation) fold.y_val.push_back(y[i]);
    if (with_bins) {
      fold.bins = std::make_shared<data::BinnedMatrix>(fold.X_train, max_bins);
    }
  }
  return cache;
}

double cross_val_score(const Classifier& prototype, const CvCache& cache,
                       CvMetric metric) {
  if (cache.folds.empty()) {
    throw std::invalid_argument("cross_val_score: no splits");
  }
  double total = 0.0;
  std::size_t used = 0;
  for (const auto& fold : cache.folds) {
    if (!fold.usable) continue;

    auto model = prototype.clone_unfitted();
    if (fold.bins) {
      if (auto* binned = dynamic_cast<BinnedFitSupport*>(model.get())) {
        binned->set_shared_bins(fold.bins);
      }
    }
    model->fit(fold.X_train, fold.y_train);
    const auto scores = model->predict_proba(fold.X_val);

    switch (metric) {
      case CvMetric::kAuc:
        total += auc(fold.y_val, scores);
        break;
      case CvMetric::kYouden: {
        const auto cm = confusion_at(fold.y_val, scores, 0.5);
        total += cm.tpr() - cm.fpr();
        break;
      }
      case CvMetric::kAccuracy: {
        const auto cm = confusion_at(fold.y_val, scores, 0.5);
        total += cm.accuracy();
        break;
      }
    }
    ++used;
  }
  return used == 0 ? 0.0 : total / static_cast<double>(used);
}

}  // namespace mfpa::ml
