// generic-infer: classify a CSV with a saved GENERIC model.
//
//   generic_infer --model=m.ghdc --data=samples.csv
//                 [--labeled] [--label-col=-1] [--binary]
//                 [--fault-campaign [--fault-kinds=transient,dead_block]
//                  [--fault-rates=0,1e-4,1e-3,1e-2] [--fault-trials=5]
//                  [--fault-seed=64023] [--degrade] [--fault-out=c.json]
//                  [--threads=N]]
//                 [--trace=out.json] [--metrics=out.json]
//
// With --labeled, the last column (or --label-col) holds ground truth and
// accuracy is reported; otherwise one prediction per line is printed.
// --binary runs the packed 1-bit fast path (model::BinaryModel).
//
// --fault-campaign (implies labelled data) runs the Monte Carlo
// fault-injection campaign of resilience::run_campaign on the loaded
// model against the CSV and prints (or writes with --fault-out) the
// deterministic JSON accuracy surface — see docs/resilience.md.
#include <cstdio>
#include <sstream>

#include "data/csv.h"
#include "encoding/encoders.h"
#include "model/binary_model.h"
#include "model/model_io.h"
#include "model/pipeline.h"
#include "obs/export.h"
#include "resilience/campaign.h"
#include "tools/cli_util.h"

using namespace generic;

int main(int argc, char** argv) {
  const std::string model_path = tools::flag_value(argc, argv, "--model");
  const std::string data_path = tools::flag_value(argc, argv, "--data");
  if (model_path.empty() || data_path.empty())
    tools::usage_exit(
        "usage: generic_infer --model=m.ghdc --data=samples.csv\n"
        "       [--labeled] [--label-col=-1] [--binary]\n"
        "       [--fault-campaign [--fault-kinds=...] [--fault-rates=...]\n"
        "        [--fault-trials=5] [--fault-seed=64023] [--degrade]\n"
        "        [--fault-out=campaign.json] [--threads=N]]\n"
        "       [--trace=out.json] [--metrics=out.json]\n"
        "       [--kernel-backend=auto|scalar|avx2|avx512|neon]\n");
  obs::Session obs_session(tools::flag_value(argc, argv, "--trace"),
                           tools::flag_value(argc, argv, "--metrics"));
  tools::apply_kernel_backend(argc, argv);

  try {
    const auto saved = model::load_model_file(model_path);
    enc::GenericEncoder encoder(saved.encoder_config);
    if (!saved.quantizer_fitted)
      throw std::runtime_error("model was saved with an unfitted encoder");
    encoder.fit_range(saved.quantizer_lo, saved.quantizer_hi);

    if (tools::has_flag(argc, argv, "--fault-campaign")) {
      const auto samples = data::load_labeled_csv(
          data_path,
          static_cast<int>(tools::flag_double(argc, argv, "--label-col", -1)));
      const auto encoded = model::encode_all(encoder, samples.x);

      resilience::CampaignConfig cc;
      cc.trials = tools::flag_size(argc, argv, "--fault-trials", 5);
      cc.seed = static_cast<std::uint64_t>(
          tools::flag_size(argc, argv, "--fault-seed", 64023));
      cc.degrade = tools::has_flag(argc, argv, "--degrade");
      // Trials fan out across the pool; the JSON is byte-identical for
      // any thread count (see docs/parallelism.md).
      cc.threads = tools::flag_size(argc, argv, "--threads", 1);
      const std::string kinds = tools::flag_value(argc, argv, "--fault-kinds");
      if (!kinds.empty()) {
        cc.kinds.clear();
        std::stringstream ss(kinds);
        for (std::string item; std::getline(ss, item, ',');)
          cc.kinds.push_back(resilience::fault_kind_from_name(item));
      }
      const std::string rates = tools::flag_value(argc, argv, "--fault-rates");
      if (!rates.empty()) {
        cc.rates.clear();
        std::stringstream ss(rates);
        for (std::string item; std::getline(ss, item, ',');)
          cc.rates.push_back(std::stod(item));
      }

      const auto result = resilience::run_campaign(saved.classifier, encoded,
                                                   samples.y, cc);
      const std::string out = tools::flag_value(argc, argv, "--fault-out");
      if (out.empty()) {
        std::fputs(resilience::campaign_to_json(result).c_str(), stdout);
      } else {
        obs::write_file(out, resilience::campaign_to_json(result));
        std::fprintf(stderr, "campaign JSON written to %s\n", out.c_str());
      }
      return 0;
    }

    const bool labeled = tools::has_flag(argc, argv, "--labeled");
    const bool binary = tools::has_flag(argc, argv, "--binary");
    std::unique_ptr<model::BinaryModel> fast;
    if (binary) fast = std::make_unique<model::BinaryModel>(saved.classifier);
    auto predict = [&](const std::vector<float>& x) {
      const auto q = encoder.encode(x);
      return binary ? fast->predict(q) : saved.classifier.predict(q);
    };

    if (labeled) {
      const auto samples = data::load_labeled_csv(
          data_path,
          static_cast<int>(tools::flag_double(argc, argv, "--label-col", -1)));
      std::size_t hits = 0;
      for (std::size_t i = 0; i < samples.x.size(); ++i)
        hits += predict(samples.x[i]) == samples.y[i];
      std::printf("accuracy: %.2f%% (%zu/%zu)%s\n",
                  100.0 * static_cast<double>(hits) /
                      static_cast<double>(samples.x.size()),
                  hits, samples.x.size(), binary ? " [1-bit fast path]" : "");
    } else {
      const auto xs = data::load_unlabeled_csv(data_path);
      for (const auto& x : xs) std::printf("%d\n", predict(x));
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
