#include "model/pipeline.h"

#include "obs/obs.h"

namespace generic::model {

HdcRunResult run_hdc_classification(enc::Encoder& enc, const data::Dataset& ds,
                                    std::size_t epochs, ThreadPool& pool) {
  GENERIC_SPAN("pipeline.run");
  {
    GENERIC_SPAN("pipeline.fit_quantizer");
    enc.fit(ds.train_x);
  }
  std::vector<hdc::IntHV> train_enc, test_enc;
  {
    GENERIC_SPAN("pipeline.encode");
    train_enc = enc.encode_batch(ds.train_x, pool);
    test_enc = enc.encode_batch(ds.test_x, pool);
  }

  HdcClassifier model(enc.dims(), ds.num_classes);
  std::size_t epoch = 0;
  {
    GENERIC_SPAN("pipeline.train");
    model.train_batch(train_enc, ds.train_y, pool);
    for (; epoch < epochs; ++epoch)
      if (model.retrain_epoch_parallel(train_enc, ds.train_y, pool) == 0) break;
  }

  GENERIC_SPAN("pipeline.predict");
  HdcRunResult res;
  res.epochs_run = epoch;
  res.predictions = model.predict_batch(test_enc, pool);
  std::size_t hits = 0;
  for (std::size_t i = 0; i < res.predictions.size(); ++i)
    hits += res.predictions[i] == ds.test_y[i];
  res.test_accuracy =
      static_cast<double>(hits) / static_cast<double>(test_enc.size());
  return res;
}

}  // namespace generic::model
