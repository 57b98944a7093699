#include "serve/model_registry.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/mfpa.hpp"
#include "core/preprocess.hpp"
#include "ml/checksum.hpp"
#include "ml/factory.hpp"
#include "ml/flat_forest.hpp"
#include "ml/serialize.hpp"
#include "sim/fleet.hpp"

namespace mfpa::serve {
namespace {
namespace fs = std::filesystem;

/// One trained pipeline shared by every test (training is the slow part).
class ModelRegistryTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sim::FleetSimulator fleet(sim::tiny_scenario(51));
    telemetry_ = new std::vector<sim::DriveTimeSeries>(
        fleet.generate_telemetry());
    core::MfpaConfig config;
    config.seed = 51;
    config.hyperparams = {{"n_trees", 10.0}, {"seed", 1.0}};
    pipeline_ = new core::MfpaPipeline(config);
    pipeline_->run(*telemetry_, fleet.tickets());
  }
  static void TearDownTestSuite() {
    delete pipeline_;
    delete telemetry_;
  }
  void SetUp() override {
    // Unique per test: ctest runs discovered tests as parallel processes.
    dir_ = fs::path(::testing::TempDir()) /
           (std::string("mfpa_registry_test_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// Scorable feature rows from the fitted pipeline's own builder.
  data::Matrix probe_rows(std::size_t limit = 64) const {
    const core::Preprocessor pre;
    const auto builder = pipeline_->make_builder();
    data::Matrix X(0, 0);
    for (const auto& series : *telemetry_) {
      const auto drive = pre.process_drive(series);
      for (const auto& r : drive.records) {
        if (X.rows() >= limit) return X;
        X.add_row(builder.features_of(r));
      }
    }
    return X;
  }

  static std::vector<sim::DriveTimeSeries>* telemetry_;
  static core::MfpaPipeline* pipeline_;
  fs::path dir_;
};

std::string read_bytes(const fs::path& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

void write_bytes(const fs::path& path, const std::string& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f << bytes;
}

std::vector<sim::DriveTimeSeries>* ModelRegistryTest::telemetry_ = nullptr;
core::MfpaPipeline* ModelRegistryTest::pipeline_ = nullptr;

TEST_F(ModelRegistryTest, StartsEmpty) {
  ModelRegistry registry(dir_.string());
  EXPECT_EQ(registry.current(), nullptr);
  EXPECT_EQ(registry.current_version(), 0);
  EXPECT_TRUE(registry.versions().empty());
}

TEST_F(ModelRegistryTest, PublishAssignsSequentialVersions) {
  ModelRegistry registry(dir_.string());
  EXPECT_EQ(registry.publish_pipeline(*pipeline_, 0, 100), 1);
  EXPECT_EQ(registry.publish_pipeline(*pipeline_, 0, 130), 2);
  EXPECT_EQ(registry.versions(), (std::vector<int>{1, 2}));
  EXPECT_EQ(registry.current_version(), 2);
}

TEST_F(ModelRegistryTest, ManifestCarriesDeploymentMetadata) {
  ModelRegistry registry(dir_.string());
  registry.publish_pipeline(*pipeline_, 17, 212);
  const auto model = registry.current();
  ASSERT_NE(model, nullptr);
  EXPECT_EQ(model->manifest.version, 1);
  EXPECT_EQ(model->manifest.algorithm, "RF");
  EXPECT_EQ(model->manifest.group, pipeline_->config().group);
  EXPECT_DOUBLE_EQ(model->manifest.threshold, pipeline_->threshold());
  EXPECT_EQ(model->manifest.train_lo, 17);
  EXPECT_EQ(model->manifest.train_hi, 212);
  // The checksum is the artifact's digest: it covers the manifest too.
  const std::string bytes = read_bytes(dir_ / "v000001.model");
  EXPECT_EQ(model->manifest.checksum,
            ml::fnv1a(std::string_view(bytes).substr(bytes.find('\n') + 1)));
  EXPECT_EQ(model->encoder.classes(),
            pipeline_->firmware_encoder().classes());
}

TEST_F(ModelRegistryTest, LoadedModelScoresIdentically) {
  ModelRegistry registry(dir_.string());
  registry.publish_pipeline(*pipeline_, 0, 100);
  const auto X = probe_rows();
  ASSERT_GT(X.rows(), 0u);
  EXPECT_EQ(registry.current()->classifier->predict_proba(X),
            pipeline_->model().predict_proba(X));
}

TEST_F(ModelRegistryTest, ReopenRestoresCurrentVersion) {
  {
    ModelRegistry registry(dir_.string());
    registry.publish_pipeline(*pipeline_, 0, 100);
    registry.publish_pipeline(*pipeline_, 0, 130);
  }
  ModelRegistry reopened(dir_.string());
  EXPECT_EQ(reopened.current_version(), 2);
  EXPECT_EQ(reopened.current()->manifest.train_hi, 130);
}

TEST_F(ModelRegistryTest, PublishIsAnRcuSwap) {
  ModelRegistry registry(dir_.string());
  registry.publish_pipeline(*pipeline_, 0, 100);
  // A reader's snapshot stays valid and unchanged across a publish.
  const auto snapshot = registry.current();
  registry.publish_pipeline(*pipeline_, 0, 130);
  EXPECT_EQ(snapshot->manifest.version, 1);
  EXPECT_EQ(snapshot->manifest.train_hi, 100);
  EXPECT_EQ(registry.current()->manifest.version, 2);
  const auto X = probe_rows();
  EXPECT_EQ(snapshot->classifier->predict_proba(X),
            pipeline_->model().predict_proba(X));
}

TEST_F(ModelRegistryTest, MissingVersionThrows) {
  ModelRegistry registry(dir_.string());
  EXPECT_THROW(registry.load_version(9), std::runtime_error);
}

TEST_F(ModelRegistryTest, CorruptPayloadIsRejected) {
  ModelRegistry registry(dir_.string());
  registry.publish_pipeline(*pipeline_, 0, 100);
  const fs::path artifact = dir_ / "v000001.model";
  std::string bytes = read_bytes(artifact);
  bytes[bytes.size() - bytes.size() / 4] ^= 0x01;  // deep inside the payload
  write_bytes(artifact, bytes);
  EXPECT_THROW(registry.load_version(1), std::runtime_error);
}

// The seal covers the manifest as well as the classifier block: one bit
// flipped at any offset (header, version, group, threshold, training
// window, firmware vocabulary or model) is refused, never loaded.
TEST_F(ModelRegistryTest, BitFlipAtEveryOffsetIsRejected) {
  // A depth-2 tree keeps the artifact, and so the sweep, small.
  const data::Matrix X = probe_rows(16);
  std::vector<int> y(X.rows());
  for (std::size_t i = 0; i < y.size(); ++i) y[i] = static_cast<int>(i % 2);
  auto model = ml::make_classifier("DT", {{"max_depth", 2.0}});
  model->fit(X, y);
  ModelRegistry registry(dir_.string());
  registry.publish(*model, pipeline_->firmware_encoder(),
                   pipeline_->config().group, 0.5, 17, 212);
  const fs::path artifact = dir_ / "v000001.model";
  const std::string pristine = read_bytes(artifact);
  for (std::size_t pos = 0; pos < pristine.size(); ++pos) {
    std::string corrupt = pristine;
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ (1 << (pos % 8)));
    write_bytes(artifact, corrupt);
    EXPECT_THROW(registry.load_version(1), std::runtime_error)
        << "byte " << pos;
  }
  write_bytes(artifact, pristine);
  EXPECT_NO_THROW(registry.load_version(1));
}

// Older files are refused by name: format 1 kept its manifest outside any
// digest, and a bare classifier block carries no manifest at all.
TEST_F(ModelRegistryTest, RefusesFormatOneAndBareClassifierBlocks) {
  ModelRegistry registry(dir_.string());
  registry.publish_pipeline(*pipeline_, 0, 100);
  const fs::path artifact = dir_ / "v000001.model";
  const auto load_error = [&] {
    try {
      registry.load_version(1);
    } catch (const std::runtime_error& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  const std::string sealed = read_bytes(artifact);
  write_bytes(artifact,
              "mfpa_artifact 1\n" + sealed.substr(sealed.find('\n') + 1));
  const std::string format_one = load_error();
  EXPECT_NE(format_one.find("version 1"), std::string::npos) << format_one;
  EXPECT_NE(format_one.find(artifact.string()), std::string::npos)
      << format_one;

  std::ostringstream bare;
  ml::save_classifier(bare, pipeline_->model());
  write_bytes(artifact, bare.str());
  const std::string block = load_error();
  EXPECT_NE(block.find("'mfpa_model'"), std::string::npos) << block;
}

TEST_F(ModelRegistryTest, TruncatedArtifactIsRejected) {
  ModelRegistry registry(dir_.string());
  registry.publish_pipeline(*pipeline_, 0, 100);
  const fs::path artifact = dir_ / "v000001.model";
  fs::resize_file(artifact, fs::file_size(artifact) / 2);
  EXPECT_THROW(registry.load_version(1), std::runtime_error);
}

TEST_F(ModelRegistryTest, NoTempFilesLeftBehind) {
  ModelRegistry registry(dir_.string());
  registry.publish_pipeline(*pipeline_, 0, 100);
  for (const auto& entry : fs::directory_iterator(dir_)) {
    EXPECT_FALSE(entry.path().filename().string().starts_with("."))
        << entry.path();
  }
}

// A crash between publish_file's temp write and its rename leaves a
// ".<name>.tmp" orphan. It was never referenced by CURRENT, so the next
// registry to open the directory must sweep it and carry on serving the
// last durably published version.
TEST_F(ModelRegistryTest, SweepsStrayTempFilesFromACrashedPublish) {
  {
    ModelRegistry registry(dir_.string());
    registry.publish_pipeline(*pipeline_, 0, 100);
  }
  // Simulated mid-publish crash: the next artifact and a CURRENT marker
  // update both died before their renames.
  {
    std::ofstream tmp(dir_ / ".v000002.model.tmp", std::ios::binary);
    tmp << "partial artifact bytes";
    std::ofstream marker(dir_ / ".CURRENT.tmp", std::ios::binary);
    marker << "v000002\n";
  }
  ModelRegistry registry(dir_.string());
  EXPECT_EQ(registry.current_version(), 1);  // durable truth survives
  EXPECT_EQ(registry.versions(), (std::vector<int>{1}));
  EXPECT_FALSE(fs::exists(dir_ / ".v000002.model.tmp"));
  EXPECT_FALSE(fs::exists(dir_ / ".CURRENT.tmp"));
  // The sweep must not eat real artifacts: the next publish still works
  // and lands version 2.
  EXPECT_EQ(registry.publish_pipeline(*pipeline_, 0, 130), 2);
}

// clear() deletes exactly what a registry writes, and refuses a directory
// holding anything else before deleting any of it.
TEST_F(ModelRegistryTest, ClearDeletesOnlyRegistryFiles) {
  {
    ModelRegistry registry(dir_.string());
    registry.publish_pipeline(*pipeline_, 0, 100);
  }
  std::ofstream(dir_ / ".v000002.model.tmp") << "partial";
  std::ofstream(dir_ / "v1.model") << "not a registry name";
  EXPECT_THROW(ModelRegistry::clear(dir_.string()), std::invalid_argument);
  EXPECT_TRUE(fs::exists(dir_ / "v000001.model"));
  EXPECT_TRUE(fs::exists(dir_ / "CURRENT"));

  fs::remove(dir_ / "v1.model");
  ModelRegistry::clear(dir_.string());
  EXPECT_TRUE(fs::is_empty(dir_));
  EXPECT_EQ(ModelRegistry(dir_.string()).current(), nullptr);

  fs::remove_all(dir_);
  ModelRegistry::clear(dir_.string());  // a missing directory stays missing
  EXPECT_FALSE(fs::exists(dir_));
}

// Serving scores flat rows of the manifest's group built from one record
// per drive. A delta pipeline trains on 2F columns, so publishing it must
// fail before anything reaches the directory.
TEST_F(ModelRegistryTest, RefusesADeltaPipelineBeforeWritingAnything) {
  sim::FleetSimulator fleet(sim::tiny_scenario(51));
  core::MfpaConfig config;
  config.seed = 51;
  config.include_deltas = true;
  config.hyperparams = {{"n_trees", 10.0}, {"seed", 1.0}};
  core::MfpaPipeline deltas(config);
  deltas.run(*telemetry_, fleet.tickets());
  ASSERT_TRUE(deltas.make_builder().config().include_deltas);

  ModelRegistry registry(dir_.string());
  EXPECT_THROW(registry.publish_pipeline(deltas, 0, 100),
               std::invalid_argument);
  EXPECT_TRUE(registry.versions().empty());
  EXPECT_FALSE(fs::exists(dir_ / "CURRENT"));
  EXPECT_EQ(registry.current(), nullptr);
}

}  // namespace
}  // namespace mfpa::serve
