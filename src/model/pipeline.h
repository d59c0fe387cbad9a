// The end-to-end run tying encoder + model together: encode a whole dataset
// once (encodings are reused across retrain epochs, as the ASIC stores them
// in temporary class-memory rows, §4.2.2) and run the full train/evaluate
// loop the Table 1 harness and tests share.
#pragma once

#include <cstddef>
#include <vector>

#include "common/thread_pool.h"
#include "data/dataset.h"
#include "encoding/encoder.h"
#include "model/hdc_classifier.h"

namespace generic::model {

struct HdcRunResult {
  double test_accuracy = 0.0;
  std::size_t epochs_run = 0;
  std::vector<int> predictions;
};

/// Fit encoder on train data, encode both splits, train with retraining,
/// and score on the test split: encode_batch + fit_parallel's steps +
/// predict_batch through `pool`. `epochs` is the paper's constant 20 in
/// the Table 1 harness. The result (accuracy, epoch count and every
/// prediction) is the same for any lane count; callers without a pool of
/// their own pass global_pool().
HdcRunResult run_hdc_classification(enc::Encoder& enc, const data::Dataset& ds,
                                    std::size_t epochs, ThreadPool& pool);

}  // namespace generic::model
