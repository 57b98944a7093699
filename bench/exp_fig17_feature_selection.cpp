// Fig. 17 reproduction: sequential forward selection over the SFWB pool.
// The paper's trajectory: TPR 0.926 -> 0.9818 and FPR 0.023 -> 0.0056 as the
// greedy subset grows, with Available Spare Threshold contributing nothing
// and features like Error/Media counters, power cycles, W_11/W_49/W_51/W_161
// and B_50/B_7A carrying the signal.
#include <iostream>

#include "bench_common.hpp"
#include "ml/factory.hpp"
#include "ml/feature_selection.hpp"
#include "ml/metrics.hpp"

int main(int argc, char** argv) {
  using namespace mfpa;
  const auto args = bench::parse_args(argc, argv);
  bench::World world(args);
  bench::print_world_banner(world, args,
                            "=== Fig. 17: sequential forward selection ===");

  // Build the SFWB dataset once (vendor I).
  const auto ds =
      bench::vendor_dataset(world, {0}, core::FeatureGroup::kSFWB, args.seed);
  std::cout << "samples=" << ds.size() << " positives=" << ds.positives()
            << " features=" << ds.num_features() << "\n\n";

  // A lean RF keeps 45 features x k folds x rounds affordable.
  const auto prototype = ml::make_classifier(
      "RF", {{"n_trees", 12}, {"max_depth", 10}, {"seed", 1}});
  const auto result =
      ml::sequential_forward_selection(*prototype, ds, 3, 5e-5, 10);

  TablePrinter table({"step", "added feature", "CV AUC"});
  for (std::size_t i = 0; i < result.trajectory.size(); ++i) {
    table.add_row({std::to_string(i + 1), result.trajectory[i].added_feature,
                   format_double(result.trajectory[i].score, 4)});
  }
  table.print(std::cout);

  // Evaluate full SFWB vs the selected subset on a held-out time split.
  auto evaluate = [&](const data::Dataset& d) {
    const data::Dataset sorted = d.sorted_by_time();
    const DayIndex cutoff =
        sorted.meta[sorted.size() * 7 / 10].day;  // ~70% timepoint
    auto [train, test] = sorted.split_by_day(cutoff);
    auto model = ml::make_classifier("RF", {{"n_trees", 60}, {"seed", 1}});
    model->fit(train.X, train.y);
    const auto scores = model->predict_proba(test.X);
    return ml::confusion_at(test.y, scores, 0.5);
  };
  const auto full = evaluate(ds);
  const auto selected = evaluate(ds.select_features(result.selected));
  print_section(std::cout, "Full SFWB vs selected subset (held-out)");
  TablePrinter cmp({"feature set", "features", "TPR", "FPR"});
  cmp.add_row({"all SFWB", std::to_string(ds.num_features()),
               format_percent(full.tpr()), format_percent(full.fpr())});
  cmp.add_row({"SFS subset", std::to_string(result.selected.size()),
               format_percent(selected.tpr()), format_percent(selected.fpr())});
  cmp.print(std::cout);
  std::cout << "\nPaper: selection lifts TPR 0.926 -> 0.9818 and cuts FPR"
               " 0.023 -> 0.0056; 'Available Spare Threshold' (S_4) is not"
               " selected.\n";
  return 0;
}
