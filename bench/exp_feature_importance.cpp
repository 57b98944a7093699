// Extension experiment: which features carry MFPA's signal? (The paper's
// Fig. 17 discussion names Error/Media counters, power cycles, W_11, W_49,
// W_51, W_161, B_50, B_7A as "requiring special attention" and calls
// Available Spare Threshold uninformative.) Reports the random forest's
// gain-weighted importance over the SFWB space, per vendor.
#include <algorithm>
#include <iostream>
#include <numeric>

#include "bench_common.hpp"
#include "ml/random_forest.hpp"
#include "ml/sampler.hpp"
#include "sim/catalog.hpp"

int main(int argc, char** argv) {
  using namespace mfpa;
  const auto args = bench::parse_args(argc, argv);
  bench::World world(args);
  bench::print_world_banner(world, args,
                            "=== RF feature importance over SFWB ===");

  for (int vendor : {0, 1}) {
    data::Dataset ds = bench::vendor_dataset(
        world, {vendor}, core::FeatureGroup::kSFWB, args.seed);
    const ml::RandomUnderSampler sampler(3.0, args.seed);
    ds = sampler.resample(ds);

    ml::RandomForestClassifier rf(
        {{"n_trees", 60}, {"max_depth", 14}, {"seed", 1}});
    rf.fit(ds.X, ds.y);
    const auto importance = rf.feature_importance();

    std::vector<std::size_t> order(importance.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return importance[a] > importance[b];
    });

    print_section(std::cout,
                  "Vendor " + sim::vendor_catalog()[static_cast<std::size_t>(
                                  vendor)].name +
                      " — top 15 features by gain importance");
    TablePrinter table({"rank", "feature", "description", "importance", "bar"});
    for (std::size_t i = 0; i < 15 && i < order.size(); ++i) {
      const std::string& name = ds.feature_names[order[i]];
      std::string description;
      if (name[0] == 'S' && name != "S") {
        description = sim::smart_attr_descriptions()[std::stoul(name.substr(2)) - 1];
      } else if (name == "F") {
        description = "FirmwareVersion (label-encoded)";
      } else if (name[0] == 'W') {
        description = sim::windows_event_types()[sim::windows_event_index(
                          std::stoi(name.substr(2)))].description;
      } else {
        description = "BSOD stop code (cumulative)";
      }
      if (description.size() > 45) description = description.substr(0, 42) + "...";
      table.add_row({std::to_string(i + 1), name, description,
                     format_percent(importance[order[i]]),
                     std::string(static_cast<std::size_t>(
                                     importance[order[i]] * 200.0),
                                 '#')});
    }
    table.print(std::cout);
    // The anti-feature check from the paper: S_4 should be near-zero.
    const std::size_t s4 = ds.feature_index("S_4");
    std::cout << "S_4 (Available Spare Threshold) importance: "
              << format_percent(importance[s4])
              << "  (paper: 'less associated with SSD failures')\n";
  }
  return 0;
}
