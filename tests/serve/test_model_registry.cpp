#include "serve/model_registry.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/mfpa.hpp"
#include "core/preprocess.hpp"
#include "ml/flat_forest.hpp"
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
  EXPECT_NE(model->manifest.checksum, 0u);
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

TEST_F(ModelRegistryTest, ActivateRollsBackAndPersists) {
  ModelRegistry registry(dir_.string());
  registry.publish_pipeline(*pipeline_, 0, 100);
  registry.publish_pipeline(*pipeline_, 0, 130);
  registry.activate(1);
  EXPECT_EQ(registry.current_version(), 1);
  ModelRegistry reopened(dir_.string());
  EXPECT_EQ(reopened.current_version(), 1);
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
  EXPECT_THROW(registry.activate(9), std::runtime_error);
}

TEST_F(ModelRegistryTest, CorruptPayloadIsRejected) {
  ModelRegistry registry(dir_.string());
  registry.publish_pipeline(*pipeline_, 0, 100);
  const fs::path artifact = dir_ / "v000001.model";
  std::string bytes;
  {
    std::ifstream f(artifact, std::ios::binary);
    std::ostringstream ss;
    ss << f.rdbuf();
    bytes = ss.str();
  }
  bytes[bytes.size() - bytes.size() / 4] ^= 0x01;  // deep inside the payload
  {
    std::ofstream f(artifact, std::ios::binary | std::ios::trunc);
    f << bytes;
  }
  EXPECT_THROW(registry.load_version(1), std::runtime_error);
}

TEST_F(ModelRegistryTest, ManifestChecksumMismatchIsRejected) {
  ModelRegistry registry(dir_.string());
  registry.publish_pipeline(*pipeline_, 0, 100);
  const fs::path artifact = dir_ / "v000001.model";
  std::string bytes;
  {
    std::ifstream f(artifact, std::ios::binary);
    std::ostringstream ss;
    ss << f.rdbuf();
    bytes = ss.str();
  }
  // Tamper with the manifest's checksum line (the first hex occurrence);
  // it no longer matches the payload framing.
  const std::size_t pos = bytes.find("checksum ") + 9;
  bytes[pos] = bytes[pos] == '0' ? '1' : '0';
  {
    std::ofstream f(artifact, std::ios::binary | std::ios::trunc);
    f << bytes;
  }
  EXPECT_THROW(registry.load_version(1), std::runtime_error);
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
