#include "data/csv.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "arch/spec.h"

namespace generic::data {
namespace {

constexpr std::size_t kMaxClasses = arch::ArchConstants{}.max_classes;

std::vector<std::string> split_fields(const std::string& line) {
  std::vector<std::string> out;
  std::string field;
  std::stringstream ss(line);
  while (std::getline(ss, field, ',')) {
    // Trim surrounding whitespace.
    const auto first = field.find_first_not_of(" \t\r");
    const auto last = field.find_last_not_of(" \t\r");
    out.push_back(first == std::string::npos
                      ? std::string()
                      : field.substr(first, last - first + 1));
  }
  return out;
}

bool parse_float(const std::string& s, float& out) {
  if (s.empty()) return false;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end != s.c_str() + s.size()) return false;
  out = static_cast<float>(v);
  return true;
}

/// A data row plus its 1-based line number in the file (for error
/// messages that point at the offending line, header included).
struct CsvRow {
  std::vector<std::string> fields;
  std::size_t line = 0;
};

std::vector<CsvRow> read_rows(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("cannot open CSV: " + path);
  std::vector<CsvRow> rows;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(f, line)) {
    ++line_no;
    if (line.empty()) continue;
    rows.push_back({split_fields(line), line_no});
  }
  if (rows.empty()) throw std::invalid_argument("empty CSV: " + path);
  // Header detection: skip the first row when its first cell is not
  // numeric. The header (or, absent one, the first data row) fixes the
  // expected field count for the whole file.
  const std::size_t cols = rows.front().fields.size();
  float probe;
  if (!parse_float(rows.front().fields.front(), probe))
    rows.erase(rows.begin());
  if (rows.empty())
    throw std::invalid_argument("CSV has only a header: " + path);
  for (const auto& r : rows)
    if (r.fields.size() != cols)
      throw std::invalid_argument(
          "CSV line " + std::to_string(r.line) + " has " +
          std::to_string(r.fields.size()) + " fields, expected " +
          std::to_string(cols) + ": " + path);
  return rows;
}

/// Parse one cell, rejecting unparseable and non-finite (NaN/Inf) values
/// with the file position in the message.
float parse_cell(const std::string& s, std::size_t line, std::size_t col,
                 const std::string& path) {
  float v;
  if (!parse_float(s, v))
    throw std::invalid_argument("non-numeric cell at line " +
                                std::to_string(line) + ", column " +
                                std::to_string(col + 1) + ": " + path);
  if (!std::isfinite(v))
    throw std::invalid_argument("non-finite value (NaN/Inf) at line " +
                                std::to_string(line) + ", column " +
                                std::to_string(col + 1) + ": " + path);
  return v;
}

}  // namespace

LabeledSamples load_labeled_csv(const std::string& path, int label_column) {
  const auto rows = read_rows(path);
  const std::size_t cols = rows.front().fields.size();
  if (cols < 2)
    throw std::invalid_argument("labelled CSV needs >= 2 columns: " + path);
  const std::size_t label_idx =
      label_column < 0 ? cols - 1 : static_cast<std::size_t>(label_column);
  if (label_idx >= cols)
    throw std::invalid_argument("label column out of range: " + path);

  LabeledSamples out;
  int max_label = -1;
  for (const auto& row : rows) {
    std::vector<float> x;
    x.reserve(cols - 1);
    int label = -1;
    for (std::size_t c = 0; c < cols; ++c) {
      const float v = parse_cell(row.fields[c], row.line, c, path);
      if (c == label_idx) {
        // The class count is max label + 1 and sizes the model, so labels
        // stop at the class memory's row count (§4.1). Range-check before
        // the cast: a float outside int's range (say 3e9) has no defined
        // conversion to int.
        label = v >= 0.0f && v < static_cast<float>(kMaxClasses)
                    ? static_cast<int>(v)
                    : -1;
        if (label < 0 || static_cast<float>(label) != v)
          throw std::invalid_argument(
              "labels must be integers in [0, " + std::to_string(kMaxClasses) +
              ") (line " + std::to_string(row.line) + "): " + path);
      } else {
        x.push_back(v);
      }
    }
    out.x.push_back(std::move(x));
    out.y.push_back(label);
    max_label = std::max(max_label, label);
  }
  out.num_classes = static_cast<std::size_t>(max_label + 1);
  return out;
}

std::vector<std::vector<float>> load_unlabeled_csv(const std::string& path) {
  const auto rows = read_rows(path);
  const std::size_t cols = rows.front().fields.size();
  std::vector<std::vector<float>> out;
  for (const auto& row : rows) {
    std::vector<float> x(cols);
    for (std::size_t c = 0; c < cols; ++c)
      x[c] = parse_cell(row.fields[c], row.line, c, path);
    out.push_back(std::move(x));
  }
  return out;
}

void save_labeled_csv(const std::string& path,
                      const std::vector<std::vector<float>>& x,
                      const std::vector<int>& y) {
  if (x.size() != y.size())
    throw std::invalid_argument("save_labeled_csv: size mismatch");
  std::ofstream f(path, std::ios::trunc);
  if (!f) throw std::runtime_error("cannot open for writing: " + path);
  for (std::size_t i = 0; i < x.size(); ++i) {
    for (float v : x[i]) f << v << ',';
    f << y[i] << '\n';
  }
  if (!f) throw std::runtime_error("write failed: " + path);
}

Dataset to_dataset(std::string name, LabeledSamples samples, double frac_train,
                   std::uint64_t seed) {
  Rng rng(seed);
  return split_train_test(std::move(name), samples.num_classes,
                          std::move(samples.x), std::move(samples.y),
                          frac_train, rng);
}

}  // namespace generic::data
