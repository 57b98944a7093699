// Model serialization. The paper's deployment pushes refreshed models to
// client machines every couple of months; that requires trained models to
// round-trip through a portable representation.
//
// Format: line-oriented text, whitespace-tokenized, doubles at full
// round-trip precision. Layout (version 2):
//
//   mfpa_model 2 <payload bytes> <fnv1a-64 hex of payload>
//   <algorithm name>
//   params <n> (<key> <value>)*
//   <algorithm-specific state written by Classifier::save_state>
//
// The header is ml::seal's (ml/checksum.hpp): its byte count and FNV-1a
// digest cover everything after it, so a truncated or bit-flipped block is
// rejected at load time with a clear error instead of silently mis-scoring.
// Every other version, the pre-checksum version 1 included, is refused. A
// deployable model file wraps this block in a registry artifact
// (serve/model_registry.hpp), which adds the deployment manifest.
//
// load_classifier() rebuilds the model through the factory and restores its
// state, so a deserialized model predicts bit-identically to the original.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "ml/model.hpp"

namespace mfpa::ml {

/// Writes a trained classifier (version-2 sealed framing) and returns the
/// payload's FNV-1a digest. Throws
/// std::logic_error if unfitted (models validate their own state) and
/// std::runtime_error on stream failure.
std::uint64_t save_classifier(std::ostream& os, const Classifier& model);

/// Reads a classifier saved by save_classifier from the rest of `is`,
/// verifying the seal (version 2). `overrides` replaces stored
/// hyperparameters before the model is rebuilt — the serving tier uses this
/// to set deployment-side knobs like "threads" that are not properties of
/// the learned state.
/// Throws std::runtime_error on malformed, truncated, or corrupt input.
std::unique_ptr<Classifier> load_classifier(std::istream& is,
                                            const Hyperparams& overrides = {});

namespace io {

// Low-level token helpers shared by the per-model save_state/load_state
// implementations.

/// Writes a double with round-trip precision followed by a space.
void write_double(std::ostream& os, double value);

/// Writes "<tag> <n> v0 v1 ...\n".
void write_vector(std::ostream& os, const std::string& tag,
                  std::span<const double> values);

/// Reads a token and checks it equals `expected`; throws on mismatch.
void expect_token(std::istream& is, const std::string& expected);

/// Reads one double; throws on failure.
double read_double(std::istream& is);

/// Reads "<tag> <n> ..." written by write_vector; throws on tag mismatch.
std::vector<double> read_vector(std::istream& is, const std::string& tag);

}  // namespace io

}  // namespace mfpa::ml
