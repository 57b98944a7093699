#include "ml/serialize.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include <unistd.h>

#include "baselines/statistical.hpp"
#include "ml/checksum.hpp"
#include "ml/factory.hpp"
#include "test_helpers.hpp"

namespace mfpa::ml {
namespace {

Hyperparams fast_params(const std::string& name) {
  Hyperparams p = default_hyperparams(name);
  p["seed"] = 3;
  if (name == "RF") p["n_trees"] = 8;
  if (name == "GBDT") p["n_rounds"] = 10;
  if (name == "CNN_LSTM") {
    p["timesteps"] = 2;
    p["epochs"] = 2;
    p["channels"] = 4;
    p["hidden"] = 6;
  }
  if (name == "SVM") p["epochs"] = 5;
  if (name == "LR") p["epochs"] = 10;
  return p;
}

class SerializeSweep : public ::testing::TestWithParam<std::string> {};

TEST_P(SerializeSweep, RoundTripPredictsIdentically) {
  const auto [X, y] = testing::make_blobs(80, 4, 3.0, 111);
  auto model = make_classifier(GetParam(), fast_params(GetParam()));
  model->fit(X, y);

  std::stringstream ss;
  save_classifier(ss, *model);
  const auto restored = load_classifier(ss);
  ASSERT_EQ(restored->name(), model->name());
  EXPECT_EQ(restored->predict_proba(X), model->predict_proba(X)) << GetParam();
}

TEST_P(SerializeSweep, UnfittedSaveThrows) {
  auto model = make_classifier(GetParam(), fast_params(GetParam()));
  std::stringstream ss;
  EXPECT_THROW(save_classifier(ss, *model), std::logic_error) << GetParam();
}

TEST_P(SerializeSweep, HyperparamsSurviveRoundTrip) {
  const auto [X, y] = testing::make_blobs(60, 4, 3.0, 112);
  auto model = make_classifier(GetParam(), fast_params(GetParam()));
  model->fit(X, y);
  std::stringstream ss;
  save_classifier(ss, *model);
  const auto restored = load_classifier(ss);
  EXPECT_EQ(restored->hyperparams(), model->hyperparams()) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, SerializeSweep,
                         ::testing::Values("Bayes", "SVM", "RF", "GBDT",
                                           "CNN_LSTM", "LR", "DT"));

TEST(Serialize, FileRoundTrip) {
  const auto [X, y] = testing::make_blobs(60, 3, 3.0, 113);
  auto model = make_classifier("RF", {{"n_trees", 5.0}, {"seed", 1.0}});
  model->fit(X, y);
  // pid-unique so parallel test processes (ctest -j, sanitizer jobs) never
  // race on the same file.
  const std::string path = ::testing::TempDir() + "/mfpa_model_test_" +
                           std::to_string(::getpid()) + ".txt";
  save_classifier_file(path, *model);
  const auto restored = load_classifier_file(path);
  EXPECT_EQ(restored->predict_proba(X), model->predict_proba(X));
  std::remove(path.c_str());
}

TEST(Serialize, MissingFileThrows) {
  EXPECT_THROW(load_classifier_file("/nonexistent/mfpa.model"),
               std::runtime_error);
}

TEST(Serialize, RejectsGarbage) {
  std::stringstream ss("this is not a model");
  EXPECT_THROW(load_classifier(ss), std::runtime_error);
}

TEST(Serialize, RejectsWrongVersion) {
  std::stringstream ss("mfpa_model 99\nRF\nparams 0\n");
  EXPECT_THROW(load_classifier(ss), std::runtime_error);
}

TEST(Serialize, RejectsUnknownAlgorithm) {
  // Valid v2 framing around an unknown name, so the factory is what refuses.
  const std::string body = "QuantumNet\nparams 0 \n";
  std::stringstream ss("mfpa_model 2 " + std::to_string(body.size()) + " " +
                       checksum_hex(fnv1a(body)) + "\n" + body);
  EXPECT_ANY_THROW(load_classifier(ss));
}

TEST(Serialize, RejectsTruncatedState) {
  const auto [X, y] = testing::make_blobs(40, 3, 3.0, 114);
  auto model = make_classifier("GBDT", {{"n_rounds", 4.0}});
  model->fit(X, y);
  std::stringstream ss;
  save_classifier(ss, *model);
  std::string text = ss.str();
  text.resize(text.size() / 2);  // chop mid-state
  std::stringstream truncated(text);
  EXPECT_THROW(load_classifier(truncated), std::runtime_error);
}

TEST(Serialize, StatisticalDetectorsRoundTrip) {
  const auto [X, y] = testing::make_blobs(80, 3, 2.0, 115);
  for (auto* det : {static_cast<Classifier*>(new baselines::ParametricDetector()),
                    static_cast<Classifier*>(new baselines::RankSumDetector())}) {
    std::unique_ptr<Classifier> owned(det);
    owned->fit(X, y);
    std::stringstream ss;
    owned->save_state(ss);
    auto clone = owned->clone_unfitted();
    clone->load_state(ss);
    EXPECT_EQ(clone->predict_proba(X), owned->predict_proba(X))
        << owned->name();
  }
}

TEST(Serialize, VectorHelpersRoundTrip) {
  std::stringstream ss;
  const std::vector<double> values{1.0, -2.5, 3.14159265358979312, 1e-300};
  io::write_vector(ss, "vals", values);
  EXPECT_EQ(io::read_vector(ss, "vals"), values);
}

TEST(Serialize, ExpectTokenMismatchThrows) {
  std::stringstream ss("wrong");
  EXPECT_THROW(io::expect_token(ss, "right"), std::runtime_error);
}

// --- Checksummed framing (format version 2) -------------------------------

namespace {

/// A fitted model serialized to a string, for corruption tests.
std::string serialized_model(const data::Matrix& X, const std::vector<int>& y) {
  auto model = make_classifier("RF", {{"n_trees", 5.0}, {"seed", 1.0}});
  model->fit(X, y);
  std::ostringstream os;
  save_classifier(os, *model);
  return os.str();
}

}  // namespace

TEST(SerializeChecksum, SaveReturnsPayloadDigest) {
  const auto [X, y] = testing::make_blobs(60, 3, 3.0, 114);
  auto model = make_classifier("RF", {{"n_trees", 5.0}, {"seed", 1.0}});
  model->fit(X, y);
  std::ostringstream os;
  const std::uint64_t digest = save_classifier(os, *model);
  const std::string artifact = os.str();
  const std::size_t body_start = artifact.find('\n') + 1;
  EXPECT_EQ(digest, fnv1a(artifact.substr(body_start)));
  EXPECT_NE(artifact.find(checksum_hex(digest)), std::string::npos);
}

TEST(SerializeChecksum, ByteFlipIsRejected) {
  const auto [X, y] = testing::make_blobs(60, 3, 3.0, 115);
  std::string artifact = serialized_model(X, y);
  // Flip one payload byte well past the header.
  const std::size_t body_start = artifact.find('\n') + 1;
  artifact[body_start + (artifact.size() - body_start) / 2] ^= 0x01;
  std::istringstream is(artifact);
  try {
    load_classifier(is);
    FAIL() << "corrupt artifact was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("checksum mismatch"),
              std::string::npos)
        << e.what();
  }
}

TEST(SerializeChecksum, TruncationIsRejected) {
  const auto [X, y] = testing::make_blobs(60, 3, 3.0, 116);
  const std::string artifact = serialized_model(X, y);
  std::istringstream is(artifact.substr(0, artifact.size() - 10));
  try {
    load_classifier(is);
    FAIL() << "truncated artifact was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos)
        << e.what();
  }
}

TEST(SerializeChecksum, GarbageHeaderIsRejected) {
  std::istringstream is("mfpa_model 9 12 deadbeef\nrest");
  EXPECT_THROW(load_classifier(is), std::runtime_error);
}

// The pre-checksum v1 framing carries no digest, so a corrupted body would
// load and score; it is refused like any version but 2, by name.
TEST(SerializeChecksum, RefusesLegacyV1) {
  const auto [X, y] = testing::make_blobs(60, 3, 3.0, 117);
  auto model = make_classifier("RF", {{"n_trees", 5.0}, {"seed", 1.0}});
  model->fit(X, y);
  std::ostringstream os;
  save_classifier(os, *model);
  const std::string artifact = os.str();
  // Re-frame the body the way pre-checksum builds wrote it.
  std::istringstream legacy("mfpa_model 1\n" +
                            artifact.substr(artifact.find('\n') + 1));
  try {
    load_classifier(legacy);
    FAIL() << "a v1 artifact was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("version 1"), std::string::npos)
        << e.what();
  }
}

TEST(SerializeChecksum, LoadAppliesOverrides) {
  const auto [X, y] = testing::make_blobs(60, 3, 3.0, 118);
  auto model = make_classifier("RF", {{"n_trees", 5.0}, {"seed", 1.0}});
  model->fit(X, y);
  std::stringstream ss;
  save_classifier(ss, *model);
  const auto restored = load_classifier(ss, {{"threads", 3.0}});
  EXPECT_EQ(restored->hyperparams().at("threads"), 3.0);
  EXPECT_EQ(restored->predict_proba(X), model->predict_proba(X));
}

TEST(SerializeChecksum, HexHelpersRoundTrip) {
  EXPECT_EQ(parse_checksum_hex(checksum_hex(0)), 0u);
  EXPECT_EQ(parse_checksum_hex(checksum_hex(kFnv1aOffset)), kFnv1aOffset);
  EXPECT_THROW(parse_checksum_hex("xyz"), std::runtime_error);
}

}  // namespace
}  // namespace mfpa::ml
