// Extension experiment: rescuing vendor IV. The paper observes its vendor-IV
// model "works not well as it has the fewest faulty SSDs", and cites
// transfer learning for minority disks ([20]) as the known remedy. This
// harness compares three ways to serve vendor IV:
//   1. IV-only training (the paper's per-vendor default),
//   2. a pooled model trained on vendors I-III applied to IV unchanged,
//   3. pooled I-III training data *plus* IV's own data (joint training).
// Features are the S+W+B subset — firmware label codes are vendor-local and
// would not transfer.
#include <iostream>

#include "bench_common.hpp"
#include "ml/factory.hpp"
#include "ml/metrics.hpp"
#include "ml/sampler.hpp"

int main(int argc, char** argv) {
  using namespace mfpa;
  const auto args = bench::parse_args(argc, argv);
  bench::World world(args);
  bench::print_world_banner(world, args,
                            "=== Vendor IV: per-vendor vs transfer ===");

  const auto iv =
      bench::vendor_dataset(world, {3}, core::FeatureGroup::kS, args.seed)
          .sorted_by_time();
  const auto pool = bench::vendor_dataset(world, {0, 1, 2},
                                          core::FeatureGroup::kS, args.seed)
                        .sorted_by_time();
  std::cout << "vendor IV: " << iv.size() << " samples (" << iv.positives()
            << " positive); donor pool I-III: " << pool.size() << " samples ("
            << pool.positives() << " positive)\n\n";

  // Honest split of IV by time: first 70% train, rest test.
  const DayIndex cutoff = iv.meta[iv.size() * 7 / 10].day;
  auto [iv_train, iv_test] = iv.split_by_day(cutoff);

  const ml::RandomUnderSampler sampler(3.0, args.seed);
  auto fit_rf = [&](const data::Dataset& train) {
    auto model = ml::make_classifier(
        "RF", {{"n_trees", 60}, {"max_depth", 14}, {"seed", 1}});
    const auto balanced = sampler.resample(train);
    model->fit(balanced.X, balanced.y);
    return model;
  };

  TablePrinter table({"strategy", "train pos", "TPR", "FPR", "AUC"});
  auto evaluate = [&](const char* label, const data::Dataset& train) {
    std::vector<std::string> row{label, std::to_string(train.positives())};
    if (train.positives() == 0 || train.negatives() == 0 ||
        iv_test.positives() == 0) {
      row.insert(row.end(), {"n/a", "n/a", "n/a"});
      table.add_row(row);
      return;
    }
    const auto model = fit_rf(train);
    const auto scores = model->predict_proba(iv_test.X);
    const auto cm = ml::confusion_at(iv_test.y, scores, 0.5);
    row.push_back(format_percent(cm.tpr()));
    row.push_back(format_percent(cm.fpr()));
    row.push_back(format_percent(ml::auc(iv_test.y, scores)));
    table.add_row(row);
  };

  evaluate("IV only (paper default)", iv_train);
  // Donor data limited to the same time period (no future leakage).
  const auto [pool_train, pool_rest] = pool.split_by_day(cutoff);
  (void)pool_rest;
  evaluate("pooled I-III, applied to IV", pool_train);
  data::Dataset joint = pool_train;
  joint.append(iv_train);
  evaluate("pooled I-III + IV (joint)", joint);

  table.print(std::cout);
  std::cout << "\nExpected shape: IV-only suffers from its tiny positive"
               " count; borrowing the majority vendors' failures (the [20]"
               " transfer idea) recovers most of the gap, and joint training"
               " does at least as well.\n";
  return 0;
}
