#include "ml/grid_search.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/parallel.hpp"
#include "ml/factory.hpp"

namespace mfpa::ml {

std::vector<Hyperparams> expand_grid(const ParamGrid& grid) {
  std::vector<Hyperparams> out{{}};
  for (const auto& [name, values] : grid) {
    if (values.empty()) {
      throw std::invalid_argument("expand_grid: empty value list for '" + name +
                                  "'");
    }
    std::vector<Hyperparams> next;
    next.reserve(out.size() * values.size());
    for (const auto& partial : out) {
      for (double v : values) {
        Hyperparams p = partial;
        p[name] = v;
        next.push_back(std::move(p));
      }
    }
    out = std::move(next);
  }
  return out;
}

GridSearchResult grid_search(const std::string& algorithm,
                             const Hyperparams& base, const ParamGrid& grid,
                             const data::Matrix& X, const std::vector<int>& y,
                             const std::vector<Split>& splits, CvMetric metric,
                             std::size_t threads) {
  const auto points = expand_grid(grid);
  std::vector<Hyperparams> param_sets(points.size());
  std::vector<double> scores(points.size(), -1.0);
  for (std::size_t i = 0; i < points.size(); ++i) {
    param_sets[i] = base;
    for (const auto& [k, v] : points[i]) param_sets[i][k] = v;
  }

  // Bin each training fold once and share it across the whole sweep — valid
  // whenever every grid point trains a histogram-path ensemble with one bin
  // geometry (i.e. the sweep itself does not vary the binning parameters).
  const bool tree_ensemble = algorithm == "RF" || algorithm == "GBDT";
  const bool sweeps_binning =
      grid.count("split_method") != 0 || grid.count("max_bins") != 0;
  const bool share_bins = tree_ensemble && !sweeps_binning &&
                          param_or(base, "split_method", 1) != 0;
  const std::size_t max_bins = static_cast<std::size_t>(
      std::clamp(param_or(base, "max_bins", 255.0), 2.0, 255.0));
  const CvCache cache = build_cv_cache(X, y, splits, share_bins, max_bins);

  auto evaluate = [&](std::size_t i) {
    const auto model = make_classifier(algorithm, param_sets[i]);
    scores[i] = cross_val_score(*model, cache, metric);
  };
  parallel_for_each(points.size(), threads, evaluate);

  GridSearchResult result;
  for (std::size_t i = 0; i < points.size(); ++i) {
    result.all.emplace_back(param_sets[i], scores[i]);
    if (scores[i] > result.best_score) {
      result.best_score = scores[i];
      result.best_params = param_sets[i];
    }
  }
  return result;
}

}  // namespace mfpa::ml
