#include "ml/serialize.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <sstream>

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

// --- The sealed-file codec (ml::seal / ml::unseal) --------------------------

namespace {

/// The runtime_error unseal throws for `bytes` (empty when it loads).
std::string unseal_error(const std::string& bytes) {
  try {
    unseal(bytes, "mfpa_test", 3, "probe.bin");
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

bool mentions(const std::string& text, const std::string& word) {
  return text.find(word) != std::string::npos;
}

}  // namespace

TEST(Seal, WritesTheCanonicalHeaderAndRoundTrips) {
  const std::string payload = std::string("line one\n") + '\0' + "binary\xff";
  const std::string sealed = seal("mfpa_test", 3, payload);
  const std::string header = "mfpa_test 3 " + std::to_string(payload.size()) +
                             " " + checksum_hex(fnv1a(payload)) + "\n";
  EXPECT_EQ(sealed, header + payload);
  EXPECT_EQ(seal_header("mfpa_test", 3, payload.size(), fnv1a(payload)),
            header);
  std::uint64_t digest = 0;
  EXPECT_EQ(unseal(sealed, "mfpa_test", 3, "probe.bin", &digest), payload);
  EXPECT_EQ(digest, fnv1a(payload));
  EXPECT_EQ(unseal(seal("mfpa_test", 3, ""), "mfpa_test", 3, "probe.bin"), "");
}

TEST(Seal, NamesEachRefusalAndWhatWasRefused) {
  const std::string sealed = seal("mfpa_test", 3, "payload bytes");
  const std::string body = sealed.substr(sealed.find('\n') + 1);
  const std::string no_header = unseal_error("mfpa_test 3 13");
  EXPECT_TRUE(mentions(no_header, "no header line")) << no_header;
  const std::string tag = unseal_error("mfpa_model 3 13 x\n" + body);
  EXPECT_TRUE(mentions(tag, "'mfpa_model'")) << tag;
  const std::string truncated =
      unseal_error(sealed.substr(0, sealed.size() - 1));
  EXPECT_TRUE(mentions(truncated, "truncated")) << truncated;
  const std::string trailing = unseal_error(sealed + "\n");
  EXPECT_TRUE(mentions(trailing, "1 trailing bytes")) << trailing;
  std::string flipped = sealed;
  flipped.back() ^= 0x01;
  const std::string digest = unseal_error(flipped);
  EXPECT_TRUE(mentions(digest, "checksum mismatch")) << digest;
  for (const std::string& e : {no_header, tag, truncated, trailing, digest}) {
    EXPECT_TRUE(e.starts_with("probe.bin: ")) << e;
  }
}

// Older formats carry no size or digest, so the version is checked first
// and names what was found.
TEST(Seal, RefusesAnotherVersionBeforeSizeAndDigest) {
  const std::string bare = unseal_error("mfpa_test 1\nold body\n");
  EXPECT_TRUE(mentions(bare, "version 1")) << bare;
  const std::string sealed_v4 = unseal_error(seal("mfpa_test", 4, "body"));
  EXPECT_TRUE(mentions(sealed_v4, "version 4")) << sealed_v4;
}

// A header that parses to the right values but is not what seal_header
// writes for them is refused, so no flip inside the header can load.
TEST(Seal, HeaderMustBeByteExact) {
  const std::string payload = "payload";
  const std::string hex = checksum_hex(fnv1a(payload));
  std::string upper = hex;
  for (char& c : upper) c = static_cast<char>(std::toupper(c));
  const std::vector<std::string> headers = {
      "mfpa_test 3 07 " + hex,
      "mfpa_test 3 +7 " + hex,
      "mfpa_test 3  7 " + hex,
      "mfpa_test 3 7  " + hex,
      "mfpa_test 3 7 " + hex + " ",
      "mfpa_test 3 7 " + hex + "\r",
      "mfpa_test 3 7 " + hex.substr(1),
      "mfpa_test 3 7 0" + hex,
      "mfpa_test 3 7 " + hex.substr(0, 15) + "g",
      "mfpa_test 3 7 " + upper.substr(0, 15) + "A",
      "mfpa_test 03 7 " + hex,
      "mfpa_test  3 7 " + hex,
      " mfpa_test 3 7 " + hex,
  };
  for (const std::string& header : headers) {
    EXPECT_FALSE(unseal_error(header + "\n" + payload).empty()) << header;
  }
  EXPECT_TRUE(unseal_error("mfpa_test 3 7 " + hex + "\n" + payload).empty());
}

TEST(SerializeChecksum, HexHelpersRoundTrip) {
  EXPECT_EQ(parse_checksum_hex(checksum_hex(0)), 0u);
  EXPECT_EQ(parse_checksum_hex(checksum_hex(kFnv1aOffset)), kFnv1aOffset);
  EXPECT_THROW(parse_checksum_hex("xyz"), std::runtime_error);
}

}  // namespace
}  // namespace mfpa::ml
