// Hyperparameter optimization (paper §III-C(4)): grid search combined with
// time-series cross-validation, per algorithm. Prints the grid, the best
// point, and the spread between the worst and best grid scores (how much
// tuning matters for each algorithm family).
#include <iostream>

#include "bench_common.hpp"
#include "ml/grid_search.hpp"

int main(int argc, char** argv) {
  using namespace mfpa;
  const auto args = bench::parse_args(argc, argv);
  bench::World world(args);
  bench::print_world_banner(
      world, args, "=== Grid search + time-series CV (paper III-C(4)) ===");

  // Build the SFWB training matrix once (vendor I, chronologically sorted).
  const auto ds =
      bench::vendor_dataset(world, {0}, core::FeatureGroup::kSFWB, args.seed)
          .sorted_by_time();
  const auto splits = ml::time_series_splits(ds.size(), 3);
  std::cout << "samples=" << ds.size() << " positives=" << ds.positives()
            << " folds=3 (chronological)\n\n";

  struct Job {
    std::string algorithm;
    ml::Hyperparams base;
    ml::ParamGrid grid;
  };
  const std::vector<Job> jobs = {
      {"RF",
       {{"seed", 1}},
       {{"n_trees", {20, 60}}, {"max_depth", {8, 14}}, {"max_features", {0, -1}}}},
      {"GBDT",
       {{"seed", 1}},
       {{"n_rounds", {30, 80}}, {"learning_rate", {0.1, 0.3}}, {"max_depth", {3, 5}}}},
      {"SVM", {{"seed", 1}, {"epochs", 10}}, {{"lambda", {1e-5, 1e-4, 1e-3}}}},
      {"Bayes", {}, {{"var_smoothing", {1e-9, 1e-6, 1e-3}}}},
  };

  TablePrinter table({"algorithm", "grid points", "best CV AUC", "worst CV AUC",
                      "best params"});
  for (const auto& job : jobs) {
    const auto result = ml::grid_search(job.algorithm, job.base, job.grid,
                                        ds.X, ds.y, splits);
    double worst = 1.0;
    for (const auto& [params, score] : result.all) {
      worst = std::min(worst, score);
    }
    std::string best;
    for (const auto& [key, value] : result.best_params) {
      if (key == "seed" || key == "epochs") continue;
      if (!best.empty()) best += ", ";
      best += key + "=" + format_double(value, value < 0.01 ? 6 : 1);
    }
    table.add_row({job.algorithm, std::to_string(result.all.size()),
                   format_double(result.best_score, 4),
                   format_double(worst, 4), best});
  }
  table.print(std::cout);
  std::cout << "\nThe tuned defaults in ml::default_hyperparams() came from"
               " this sweep at the default scenario scale.\n";
  return 0;
}
