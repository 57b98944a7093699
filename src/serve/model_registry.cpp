#include "serve/model_registry.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>

#include "ml/checksum.hpp"
#include "ml/flat_forest.hpp"
#include "ml/serialize.hpp"
#include "serve/wal.hpp"

namespace mfpa::serve {
namespace fs = std::filesystem;

namespace {

std::string version_name(int version) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "v%06d", version);
  return buf;
}

/// Parses "v000123" -> 123; returns 0 for anything else.
int parse_version_name(const std::string& name) {
  if (name.size() != 7 || name[0] != 'v') return 0;
  int v = 0;
  for (std::size_t i = 1; i < name.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') return 0;
    v = v * 10 + (name[i] - '0');
  }
  return v;
}

/// Parses "v000123.model" -> 123; returns 0 for anything else.
int parse_artifact_name(const std::string& name) {
  if (name.size() != 13 || !name.ends_with(".model")) return 0;
  return parse_version_name(name.substr(0, 7));
}

/// Whether a registry writes `name`: an artifact, CURRENT, or a publish
/// temp file (the ones its constructor sweeps).
bool is_registry_file(const std::string& name) {
  return name == "CURRENT" || parse_artifact_name(name) > 0 ||
         is_publish_temp_name(name);
}

/// Reads the manifest line `key`'s first value.
template <typename T>
T read_field(std::istream& is, const std::string& key) {
  std::string token;
  T value{};
  if (!(is >> token) || token != key || !(is >> value)) {
    throw std::runtime_error("malformed manifest line '" + key + "'");
  }
  return value;
}

}  // namespace

std::string render_artifact(const ModelManifest& manifest,
                            const data::LabelEncoder& encoder,
                            const ml::Classifier& model) {
  std::ostringstream payload;
  payload << "version " << manifest.version << '\n'
          << "algorithm " << model.name() << '\n'
          << "group " << core::feature_group_name(manifest.group) << '\n'
          << "threshold ";
  ml::io::write_double(payload, manifest.threshold);
  payload << '\n'
          << "train_window " << manifest.train_lo << ' ' << manifest.train_hi
          << '\n'
          << "firmware " << encoder.classes().size();
  for (const auto& cls : encoder.classes()) payload << ' ' << cls;
  payload << '\n';
  ml::save_classifier(payload, model);
  return ml::seal("mfpa_artifact", 2, payload.str());
}

std::shared_ptr<ServedModel> load_artifact(const std::string& path,
                                           const ml::Hyperparams& overrides) {
  const std::string what = "model artifact " + path;
  std::ifstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("cannot open " + what);
  const std::string bytes((std::istreambuf_iterator<char>(f)),
                          std::istreambuf_iterator<char>());
  auto served = std::make_shared<ServedModel>();
  ModelManifest& m = served->manifest;
  // Nothing is parsed before the seal checks out.
  std::istringstream is(
      std::string(ml::unseal(bytes, "mfpa_artifact", 2, what, &m.checksum)));
  try {
    m.version = read_field<int>(is, "version");
    m.algorithm = read_field<std::string>(is, "algorithm");
    m.group =
        core::feature_group_from_name(read_field<std::string>(is, "group"));
    m.threshold = read_field<double>(is, "threshold");
    m.train_lo = read_field<DayIndex>(is, "train_window");
    if (!(is >> m.train_hi)) {
      throw std::runtime_error("malformed manifest line 'train_window'");
    }
    std::vector<std::string> vocabulary(
        read_field<std::size_t>(is, "firmware"));
    for (auto& name : vocabulary) {
      if (!(is >> name)) {
        throw std::runtime_error("malformed manifest line 'firmware'");
      }
    }
    served->encoder.fit(vocabulary);
    if (is.get() != '\n') {
      throw std::runtime_error("malformed manifest line 'firmware'");
    }
    served->classifier = ml::load_classifier(is, overrides);
  } catch (const std::exception& e) {
    throw std::runtime_error(what + ": " + e.what());
  }
  return served;
}

core::SampleBuilder ServedModel::make_builder() const {
  core::SampleConfig sc;
  sc.group = manifest.group;
  return core::SampleBuilder(sc, &encoder);
}

ModelRegistry::ModelRegistry(std::string directory, std::size_t)
    : dir_(std::move(directory)) {
  auto& reg = obs::registry();
  metrics_.publishes = &reg.counter("mfpa_registry_publishes_total");
  metrics_.swap_seconds = &reg.histogram("mfpa_registry_swap_seconds");
  metrics_.current_version = &reg.gauge("mfpa_registry_current_version");
  fs::create_directories(dir_);
  // An orphan was never referenced by CURRENT, so sweeping it is always
  // safe and keeps the directory listing clean.
  remove_publish_orphans(dir_);
  const fs::path marker = fs::path(dir_) / "CURRENT";
  if (fs::exists(marker)) {
    std::ifstream f(marker);
    std::string name;
    f >> name;
    const int version = parse_version_name(name);
    if (version <= 0) {
      throw std::runtime_error("ModelRegistry: malformed CURRENT marker '" +
                               name + "' in " + dir_);
    }
    set_current(load_version(version));
    metrics_.current_version->set(version);
  }
}

std::string ModelRegistry::artifact_path(int version) const {
  return (fs::path(dir_) / (version_name(version) + ".model")).string();
}

int ModelRegistry::current_version() const {
  const auto snapshot = current();
  return snapshot ? snapshot->manifest.version : 0;
}

std::vector<int> ModelRegistry::versions() const {
  std::vector<int> out;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    const int v = parse_artifact_name(entry.path().filename().string());
    if (v > 0) out.push_back(v);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void ModelRegistry::clear(const std::string& directory) {
  if (!fs::exists(directory)) return;
  if (!fs::is_directory(directory)) {
    throw std::invalid_argument("ModelRegistry: " + directory +
                                " is not a directory");
  }
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(directory)) {
    const std::string name = entry.path().filename().string();
    if (!entry.is_regular_file() || !is_registry_file(name)) {
      throw std::invalid_argument(
          "ModelRegistry: " + directory + " holds '" + name +
          "', which a model registry never writes; refusing to clear it");
    }
    files.push_back(entry.path());
  }
  for (const auto& file : files) fs::remove(file);
}

int ModelRegistry::publish(const ml::Classifier& model,
                           const data::LabelEncoder& encoder,
                           core::FeatureGroup group, double threshold,
                           DayIndex train_lo, DayIndex train_hi) {
  std::lock_guard<std::mutex> lock(publish_mu_);
  const auto existing = versions();
  const int version = existing.empty() ? 1 : existing.back() + 1;

  ModelManifest manifest;
  manifest.version = version;
  manifest.group = group;
  manifest.threshold = threshold;
  manifest.train_lo = train_lo;
  manifest.train_hi = train_hi;
  publish_file(artifact_path(version),
               render_artifact(manifest, encoder, model), /*fsync=*/true);
  write_current_marker(version);
  {
    obs::ScopedTimer timer(*metrics_.swap_seconds);
    set_current(load_version(version));
  }
  metrics_.publishes->inc();
  metrics_.current_version->set(version);
  return version;
}

int ModelRegistry::publish_pipeline(const core::MfpaPipeline& pipeline,
                                    DayIndex train_lo, DayIndex train_hi) {
  // Serving keeps one record per drive and builds flat rows of the
  // manifest's group from it (ServedModel::make_builder); a model trained
  // on sequence or delta rows would be fed rows of the wrong shape.
  const core::SampleConfig rows = pipeline.make_builder().config();
  if (rows.sequences || rows.include_deltas) {
    throw std::invalid_argument(
        "ModelRegistry: cannot publish a " +
        std::string(rows.sequences ? "sequence-row" : "delta-row") + " " +
        pipeline.model().name() +
        " model: serving scores flat rows built from one record per drive");
  }
  return publish(pipeline.model(), pipeline.firmware_encoder(),
                 pipeline.config().group, pipeline.threshold(), train_lo,
                 train_hi);
}

std::shared_ptr<const ServedModel> ModelRegistry::load_version(
    int version) const {
  const std::string path = artifact_path(version);
  // Serving predicts inline on each engine's drain thread; its parallelism
  // comes from shards (net::ShardRouter), never from a pool per batch.
  auto served = load_artifact(path, {{"threads", 1.0}});
  if (served->manifest.version != version) {
    throw std::runtime_error("ModelRegistry: " + path + " holds version " +
                             std::to_string(served->manifest.version));
  }
  // Compile tree ensembles into the flat inference format here, at load
  // time, so every model the engine hot-swaps to serves from
  // the compiled representation (probabilities stay bit-identical).
  if (auto* compiled =
          dynamic_cast<ml::CompiledInference*>(served->classifier.get())) {
    compiled->compile();
  }
  return served;
}

void ModelRegistry::write_current_marker(int version) {
  publish_file((fs::path(dir_) / "CURRENT").string(),
               version_name(version) + "\n", /*fsync=*/true);
}

}  // namespace mfpa::serve
