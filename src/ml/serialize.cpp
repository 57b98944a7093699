#include "ml/serialize.hpp"

#include <cstdio>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "ml/checksum.hpp"
#include "ml/factory.hpp"

namespace mfpa::ml {
namespace io {

void write_double(std::ostream& os, double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  os << buf << ' ';
}

void write_vector(std::ostream& os, const std::string& tag,
                  std::span<const double> values) {
  os << tag << ' ' << values.size() << ' ';
  for (double v : values) write_double(os, v);
  os << '\n';
}

void expect_token(std::istream& is, const std::string& expected) {
  std::string token;
  if (!(is >> token) || token != expected) {
    throw std::runtime_error("serialize: expected token '" + expected +
                             "', got '" + token + "'");
  }
}

double read_double(std::istream& is) {
  double v = 0.0;
  if (!(is >> v)) throw std::runtime_error("serialize: malformed double");
  return v;
}

std::vector<double> read_vector(std::istream& is, const std::string& tag) {
  expect_token(is, tag);
  std::size_t n = 0;
  if (!(is >> n)) throw std::runtime_error("serialize: malformed vector size");
  if (n > (1u << 28)) throw std::runtime_error("serialize: absurd vector size");
  std::vector<double> out(n);
  for (auto& v : out) v = read_double(is);
  return out;
}

}  // namespace io

namespace {

/// Parses the checksummed portion (name, params, model state) from `is`,
/// applying `overrides` on top of the stored hyperparameters.
std::unique_ptr<Classifier> load_body(std::istream& is,
                                      const Hyperparams& overrides) {
  std::string name;
  if (!(is >> name)) throw std::runtime_error("load_classifier: missing name");
  io::expect_token(is, "params");
  std::size_t n = 0;
  if (!(is >> n) || n > 1000) {
    throw std::runtime_error("load_classifier: malformed params");
  }
  Hyperparams params;
  for (std::size_t i = 0; i < n; ++i) {
    std::string key;
    if (!(is >> key)) throw std::runtime_error("load_classifier: bad param key");
    params[key] = io::read_double(is);
  }
  for (const auto& [key, value] : overrides) params[key] = value;
  auto model = make_classifier(name, params);
  model->load_state(is);
  return model;
}

}  // namespace

std::uint64_t save_classifier(std::ostream& os, const Classifier& model) {
  // The body (everything the checksum covers) is rendered first so the
  // header can carry its exact byte length and FNV-1a digest; the loader can
  // then reject truncation and corruption before touching the payload.
  std::ostringstream body_stream;
  body_stream << model.name() << '\n';
  const Hyperparams& params = model.hyperparams();
  body_stream << "params " << params.size() << ' ';
  for (const auto& [key, value] : params) {
    body_stream << key << ' ';
    io::write_double(body_stream, value);
  }
  body_stream << '\n';
  model.save_state(body_stream);
  const std::string body = body_stream.str();
  const std::uint64_t digest = fnv1a(body);
  os << "mfpa_model 2 " << body.size() << ' ' << checksum_hex(digest) << '\n'
     << body;
  if (!os) throw std::runtime_error("save_classifier: stream failure");
  return digest;
}

std::unique_ptr<Classifier> load_classifier(std::istream& is,
                                            const Hyperparams& overrides) {
  io::expect_token(is, "mfpa_model");
  int version = 0;
  if (!(is >> version)) {
    throw std::runtime_error("load_classifier: malformed format version");
  }
  if (version != 2) {
    throw std::runtime_error("load_classifier: unsupported format version " +
                             std::to_string(version) +
                             " (only checksummed version 2 loads)");
  }
  std::size_t body_size = 0;
  std::string hex;
  if (!(is >> body_size >> hex) || body_size > (1u << 30)) {
    throw std::runtime_error("load_classifier: malformed checksum header");
  }
  const std::uint64_t expected = parse_checksum_hex(hex);
  if (is.get() != '\n') {
    throw std::runtime_error("load_classifier: malformed checksum header");
  }
  std::string body(body_size, '\0');
  is.read(body.data(), static_cast<std::streamsize>(body_size));
  if (static_cast<std::size_t>(is.gcount()) != body_size) {
    throw std::runtime_error(
        "load_classifier: truncated artifact (expected " +
        std::to_string(body_size) + " payload bytes, got " +
        std::to_string(is.gcount()) + ")");
  }
  const std::uint64_t actual = fnv1a(body);
  if (actual != expected) {
    throw std::runtime_error(
        "load_classifier: checksum mismatch (artifact corrupt): expected " +
        checksum_hex(expected) + ", payload hashes to " + checksum_hex(actual));
  }
  std::istringstream body_is(body);
  return load_body(body_is, overrides);
}

void save_classifier_file(const std::string& path, const Classifier& model) {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("save_classifier_file: cannot open " + path);
  save_classifier(f, model);
}

std::unique_ptr<Classifier> load_classifier_file(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("load_classifier_file: cannot open " + path);
  return load_classifier(f);
}

}  // namespace mfpa::ml
