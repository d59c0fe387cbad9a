#include "arch/generic_asic.h"

#include <limits>
#include <stdexcept>

#include "common/mitchell.h"
#include "hdc/hypervector.h"

namespace generic::arch {
namespace {

enc::EncoderConfig encoder_config(const AppSpec& spec, const ArchConstants& hw,
                                  std::uint64_t seed) {
  enc::EncoderConfig cfg;
  cfg.dims = spec.dims;
  cfg.levels = hw.levels;
  cfg.window = spec.window;
  cfg.use_ids = spec.use_ids;
  cfg.seed = seed;
  return cfg;
}

}  // namespace

GenericAsic::GenericAsic(const AppSpec& spec, std::uint64_t seed,
                         const ArchConstants& hw)
    : spec_(spec),
      hw_(hw),
      cycles_(hw),
      energy_(hw),
      encoder_(encoder_config(spec, hw, seed)),
      active_dims_(spec.dims),
      fault_rng_(seed ^ 0xFA17ULL) {
  spec_.validate(hw_);
}

const model::HdcClassifier& GenericAsic::require_model() const {
  if (!model_) throw std::logic_error("GenericAsic: model not trained/loaded");
  return *model_;
}

std::size_t GenericAsic::train(const std::vector<std::vector<float>>& x,
                               const std::vector<int>& y, std::size_t epochs) {
  if (x.size() != y.size() || x.empty())
    throw std::invalid_argument("GenericAsic::train: bad input sizes");
  spec_.mode = Mode::kTraining;
  encoder_.fit(x);
  // Encode the stream once and bundle into class rows (§4.2.2 round one).
  std::vector<hdc::IntHV> encoded;
  encoded.reserve(x.size());
  for (const auto& sample : x) {
    encoded.push_back(encoder_.encode(sample));
    counts_ += cycles_.train_init_input(spec_);
  }
  model_.emplace(spec_.dims, spec_.classes, hw_.chunk);
  model_->train_init(encoded, y);

  // Retraining epochs: inference over the train stream (encodings stashed
  // in temporary class rows) plus an update per misprediction.
  std::size_t epoch = 0;
  for (; epoch < epochs; ++epoch) {
    std::size_t updates = 0;
    for (std::size_t i = 0; i < encoded.size(); ++i) {
      counts_ += cycles_.infer_input(spec_);
      const int pred = best_class(encoded[i]);
      if (pred == y[i]) continue;
      ++updates;
      counts_ += cycles_.retrain_update(spec_);
      // Norm2 rows of the two touched classes refresh with the write-back
      // (§4.2.2), so the very next prediction already sees them.
      model_->move_sample(encoded[i], pred, y[i]);
    }
    if (updates == 0) break;
  }
  return epoch;
}

int GenericAsic::infer(std::span<const float> sample) {
  require_model();
  spec_.mode = Mode::kInference;
  AppSpec effective = spec_;
  effective.dims = active_dims_;  // fewer dims -> fewer passes (§4.3.3)
  counts_ += cycles_.infer_input(effective);
  return best_class(encoder_.encode(sample));
}

int GenericAsic::online_update(std::span<const float> sample, int label) {
  require_model();
  if (label < 0 || static_cast<std::size_t>(label) >= spec_.classes)
    throw std::invalid_argument("online_update: label out of range");
  spec_.mode = Mode::kTraining;
  counts_ += cycles_.infer_input(spec_);
  const auto encoded = encoder_.encode(sample);
  const int pred = best_class(encoded);
  if (pred != label) {
    counts_ += cycles_.retrain_update(spec_);
    model_->move_sample(encoded, pred, label);
  }
  return pred;
}

std::vector<int> GenericAsic::cluster(const std::vector<std::vector<float>>& x,
                                      std::size_t epochs) {
  if (x.size() < spec_.classes)
    throw std::invalid_argument("GenericAsic::cluster: fewer inputs than k");
  spec_.mode = Mode::kClustering;
  encoder_.fit(x);
  std::vector<hdc::IntHV> encoded;
  encoded.reserve(x.size());
  for (const auto& sample : x) encoded.push_back(encoder_.encode(sample));

  const std::size_t k = spec_.classes;
  // First k encodings seed the centroids (§4.2.3); store them in the model
  // object so best_class/norm plumbing is shared with classification.
  model_.emplace(spec_.dims, k, hw_.chunk);
  std::vector<int> seed_labels(k);
  for (std::size_t c = 0; c < k; ++c) seed_labels[c] = static_cast<int>(c);
  model_->train_init(std::span(encoded.data(), k), seed_labels);

  std::vector<int> labels(encoded.size(), -1);
  for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
    std::vector<hdc::IntHV> copy(k, hdc::IntHV(spec_.dims, 0));
    std::vector<std::size_t> members(k, 0);
    bool changed = false;
    for (std::size_t i = 0; i < encoded.size(); ++i) {
      counts_ += cycles_.cluster_input(spec_);
      const int c = best_class(encoded[i]);
      if (c != labels[i]) changed = true;
      labels[i] = c;
      hdc::add_into(copy[static_cast<std::size_t>(c)], encoded[i]);
      members[static_cast<std::size_t>(c)]++;
    }
    if (!changed) break;
    for (std::size_t c = 0; c < k; ++c)
      if (members[c] != 0) model_->set_class_vector(c, std::move(copy[c]));
    model_->recompute_norms();
  }
  return labels;
}

void GenericAsic::restore_model(model::HdcClassifier m) {
  if (m.dims() != spec_.dims)
    throw std::invalid_argument("restore_model: dimension mismatch");
  spec_.bit_width = m.bit_width();
  model_ = std::move(m);
  active_dims_ = spec_.dims;
  constant_norms_ = false;
  vos_ = VosSetting{};
}

void GenericAsic::set_active_dims(std::size_t dims, bool constant_norms) {
  if (dims == 0 || dims > spec_.dims || dims % hw_.chunk != 0)
    throw std::invalid_argument(
        "set_active_dims: dims must be a 128-multiple <= trained dims");
  active_dims_ = dims;
  constant_norms_ = constant_norms;
}

void GenericAsic::quantize(int bit_width) {
  require_model();
  model_->quantize(bit_width);
  spec_.bit_width = bit_width;
}

void GenericAsic::apply_voltage_scaling(double bit_error_rate) {
  require_model();
  vos_ = vos_for_error_rate(bit_error_rate);
  model_->inject_bit_flips(bit_error_rate, fault_rng_);
}

int GenericAsic::best_class(const hdc::IntHV& encoded) const {
  const auto& model = require_model();
  const auto mode = constant_norms_ ? model::NormMode::kConstant
                                    : model::NormMode::kUpdated;
  if (exact_divider_)
    return model.predict_reduced(encoded, active_dims_, mode);
  // Hardware path: rank sign(dot) * dot^2 / norm entirely in the log
  // domain — 2 log2|dot| - log2(norm) with the corrected Mitchell
  // approximation (§4.2.1, [18]); negative dots rank below zero dots,
  // which rank below positive dots.
  int best = 0;
  int best_sign = -2;
  std::int64_t best_log = std::numeric_limits<std::int64_t>::min();
  for (std::size_t c = 0; c < model.num_classes(); ++c) {
    const auto& cls = model.class_vector(c);
    std::int64_t dot = 0;
    for (std::size_t j = 0; j < active_dims_; ++j)
      dot += static_cast<std::int64_t>(encoded[j]) * cls[j];
    std::int64_t norm = 0;
    const std::size_t chunks = constant_norms_ ? model.num_chunks()
                                               : active_dims_ / hw_.chunk;
    for (std::size_t kk = 0; kk < chunks; ++kk) norm += model.chunk_norm(c, kk);
    int sign;
    std::int64_t log_score;
    if (dot == 0 || norm == 0) {
      sign = 0;
      log_score = 0;
    } else {
      sign = dot > 0 ? 1 : -1;
      const auto mag = static_cast<std::uint64_t>(dot > 0 ? dot : -dot);
      log_score = 2 * mitchell_log2_corrected(mag) -
                  mitchell_log2_corrected(static_cast<std::uint64_t>(norm));
    }
    // Compare (sign, sign*log): positive beats zero beats negative; within
    // positives a bigger ratio wins, within negatives a smaller one does.
    const std::int64_t keyed = sign >= 0 ? log_score : -log_score;
    if (sign > best_sign || (sign == best_sign && keyed > best_log)) {
      best_sign = sign;
      best_log = keyed;
      best = static_cast<int>(c);
    }
  }
  return best;
}

}  // namespace generic::arch
