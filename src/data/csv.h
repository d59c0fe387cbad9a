// CSV dataset I/O: the path for running the library on real data (the CLI
// tools under tools/ are built on this). One row per sample, numeric
// feature columns, integer class label in the last column by default.
// A header line is auto-detected (first field not parseable as a number)
// and skipped.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "data/dataset.h"

namespace generic::data {

struct LabeledSamples {
  std::vector<std::vector<float>> x;
  std::vector<int> y;
  std::size_t num_classes = 0;  ///< max label + 1
};

/// Parse a labelled CSV. `label_column` counts from 0; -1 means the last
/// column. Throws std::runtime_error on I/O failure and
/// std::invalid_argument on malformed content — rows whose field count
/// differs from the header/first row, non-numeric or non-finite (NaN/Inf)
/// cells, labels outside [0, 32) (the class memory's 32 rows, arch/spec.h)
/// — with the offending 1-based file line in the message.
LabeledSamples load_labeled_csv(const std::string& path,
                                int label_column = -1);

/// Parse an unlabelled CSV (all columns are features).
std::vector<std::vector<float>> load_unlabeled_csv(const std::string& path);

/// Write samples (+ labels in the last column) to CSV.
void save_labeled_csv(const std::string& path,
                      const std::vector<std::vector<float>>& x,
                      const std::vector<int>& y);

/// Stratified split of loaded samples into a Dataset.
Dataset to_dataset(std::string name, LabeledSamples samples,
                   double frac_train, std::uint64_t seed = 1);

}  // namespace generic::data
