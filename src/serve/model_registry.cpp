#include "serve/model_registry.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
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

void expect_line_token(std::istream& is, const std::string& expected) {
  std::string token;
  if (!(is >> token) || token != expected) {
    throw std::runtime_error("ModelRegistry: artifact missing '" + expected +
                             "' (got '" + token + "')");
  }
}

}  // namespace

core::SampleBuilder ServedModel::make_builder() const {
  core::SampleConfig sc;
  sc.group = manifest.group;
  return core::SampleBuilder(sc, &encoder);
}

ModelRegistry::ModelRegistry(std::string directory, std::size_t)
    : dir_(std::move(directory)) {
  auto& reg = obs::registry();
  metrics_.publishes = &reg.counter("mfpa_registry_publishes_total");
  metrics_.activations = &reg.counter("mfpa_registry_activations_total");
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

  // Render the model payload once; its digest goes into the manifest so the
  // manifest itself cross-checks the framing.
  std::ostringstream payload;
  const std::uint64_t digest = ml::save_classifier(payload, model);

  std::ostringstream artifact;
  artifact << "mfpa_artifact 1\n"
           << "version " << version << '\n'
           << "algorithm " << model.name() << '\n'
           << "group " << core::feature_group_name(group) << '\n'
           << "threshold ";
  ml::io::write_double(artifact, threshold);
  artifact << '\n'
           << "train_window " << train_lo << ' ' << train_hi << '\n'
           << "firmware " << encoder.classes().size();
  for (const auto& cls : encoder.classes()) artifact << ' ' << cls;
  artifact << '\n'
           << "checksum " << ml::checksum_hex(digest) << '\n'
           << payload.str();

  publish_file(artifact_path(version), artifact.str(), /*fsync=*/true);
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
  std::ifstream f(path, std::ios::binary);
  if (!f) {
    throw std::runtime_error("ModelRegistry: missing artifact " + path);
  }
  expect_line_token(f, "mfpa_artifact");
  int format = 0;
  if (!(f >> format) || format != 1) {
    throw std::runtime_error("ModelRegistry: unsupported artifact format in " +
                             path);
  }
  auto served = std::make_shared<ServedModel>();
  ModelManifest& m = served->manifest;
  expect_line_token(f, "version");
  if (!(f >> m.version) || m.version != version) {
    throw std::runtime_error("ModelRegistry: version mismatch inside " + path);
  }
  expect_line_token(f, "algorithm");
  if (!(f >> m.algorithm)) {
    throw std::runtime_error("ModelRegistry: missing algorithm in " + path);
  }
  expect_line_token(f, "group");
  std::string group_name;
  if (!(f >> group_name)) {
    throw std::runtime_error("ModelRegistry: missing group in " + path);
  }
  m.group = core::feature_group_from_name(group_name);
  expect_line_token(f, "threshold");
  m.threshold = ml::io::read_double(f);
  expect_line_token(f, "train_window");
  if (!(f >> m.train_lo >> m.train_hi)) {
    throw std::runtime_error("ModelRegistry: malformed train_window in " +
                             path);
  }
  expect_line_token(f, "firmware");
  std::size_t vocab = 0;
  if (!(f >> vocab) || vocab > (1u << 20)) {
    throw std::runtime_error("ModelRegistry: malformed firmware vocabulary in " +
                             path);
  }
  std::vector<std::string> versions_list(vocab);
  for (auto& v : versions_list) {
    if (!(f >> v)) {
      throw std::runtime_error("ModelRegistry: truncated firmware vocabulary in " +
                               path);
    }
  }
  served->encoder.fit(versions_list);
  expect_line_token(f, "checksum");
  std::string hex;
  if (!(f >> hex)) {
    throw std::runtime_error("ModelRegistry: missing checksum in " + path);
  }
  m.checksum = ml::parse_checksum_hex(hex);

  // The framing header that follows carries the digest the payload must
  // hash to; requiring it to equal the manifest's digest ties the two halves
  // of the artifact together, and load_classifier then verifies the payload
  // bytes actually hash to it.
  if (f.get() != '\n') {
    throw std::runtime_error("ModelRegistry: malformed checksum line in " +
                             path);
  }
  const std::streampos payload_start = f.tellg();
  std::string magic;
  int model_format = 0;
  std::size_t body_size = 0;
  std::string framing_hex;
  if (!(f >> magic >> model_format >> body_size >> framing_hex) ||
      magic != "mfpa_model" || model_format != 2) {
    throw std::runtime_error("ModelRegistry: malformed model framing in " +
                             path);
  }
  if (ml::parse_checksum_hex(framing_hex) != m.checksum) {
    throw std::runtime_error(
        "ModelRegistry: manifest checksum does not match payload in " + path);
  }
  f.seekg(payload_start);
  // Serving predicts inline on each engine's drain thread; its parallelism
  // comes from shards (net::ShardRouter), never from a pool per batch.
  served->classifier = ml::load_classifier(f, {{"threads", 1.0}});
  // Compile tree ensembles into the flat inference format here, at
  // activation time, so every model the engine hot-swaps to serves from
  // the compiled representation (probabilities stay bit-identical).
  if (auto* compiled =
          dynamic_cast<ml::CompiledInference*>(served->classifier.get())) {
    compiled->compile();
  }
  return served;
}

void ModelRegistry::activate(int version) {
  std::lock_guard<std::mutex> lock(publish_mu_);
  obs::ScopedTimer timer(*metrics_.swap_seconds);
  auto served = load_version(version);
  write_current_marker(version);
  set_current(std::move(served));
  metrics_.activations->inc();
  metrics_.current_version->set(version);
}

void ModelRegistry::write_current_marker(int version) {
  publish_file((fs::path(dir_) / "CURRENT").string(),
               version_name(version) + "\n", /*fsync=*/true);
}

}  // namespace mfpa::serve
