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
  HdcRunResult res;
  {
    GENERIC_SPAN("pipeline.train");
    res.epochs_run = model.fit_parallel(train_enc, ds.train_y, epochs, pool);
  }

  GENERIC_SPAN("pipeline.predict");
  res.predictions = model.predict_batch(test_enc, pool);
  std::size_t hits = 0;
  for (std::size_t i = 0; i < res.predictions.size(); ++i)
    hits += res.predictions[i] == ds.test_y[i];
  res.test_accuracy =
      static_cast<double>(hits) / static_cast<double>(test_enc.size());
  return res;
}

}  // namespace generic::model
