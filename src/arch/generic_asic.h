// Behavioural model of the GENERIC accelerator (paper §4).
//
// GenericAsic executes the same algorithms as the software stack — the
// GENERIC encoder (Eq. 1), HDC train/retrain/inference and HDC clustering —
// while accounting every memory access and cycle through the CycleModel
// and scoring classes the way the silicon does: entirely in the log domain
// through the Mitchell divider (§4.2.1), never materialising a quotient.
//
// The model is behaviourally exact with respect to the algorithmic stack
// up to the Mitchell approximation (tests enforce both the exact-divider
// equivalence and a high agreement rate for the Mitchell path), and it is
// the vehicle for the §4.3 energy features:
//   * power gating        — implicit in the AppSpec (classes x dims)
//   * dimension reduction — set_active_dims() shortens every subsequent
//     encode/search to D'/m passes and switches to the stored sub-norms
//   * voltage over-scaling — apply_voltage_scaling() injects bit flips
//     into the (quantized) class memory at the operating point's error rate
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "arch/cycle_model.h"
#include "arch/energy_model.h"
#include "arch/spec.h"
#include "common/rng.h"
#include "encoding/encoders.h"
#include "model/hdc_classifier.h"

namespace generic::arch {

class GenericAsic {
 public:
  GenericAsic(const AppSpec& spec, std::uint64_t seed = 0xA51CULL,
              const ArchConstants& hw = {});

  const AppSpec& spec() const { return spec_; }

  /// Load training data through the input port and run training: one
  /// initialization pass plus up to `epochs` retraining epochs (early stop
  /// when an epoch makes no update). Returns retraining epochs executed.
  std::size_t train(const std::vector<std::vector<float>>& x,
                    const std::vector<int>& y, std::size_t epochs = 20);

  /// Classify one input. Requires a trained model.
  int infer(std::span<const float> sample);

  /// Online adaptation on a single labelled input: inference plus, on a
  /// misprediction, one retraining update (§4.2.2 applied sample-at-a-time
  /// — continuous learning while deployed). Returns the prediction made
  /// *before* any update.
  int online_update(std::span<const float> sample, int label);

  /// Cluster a stream into spec.classes centroids; returns final labels.
  std::vector<int> cluster(const std::vector<std::vector<float>>& x,
                           std::size_t epochs = 10);

  // ---- low-power controls (§4.3) ----

  /// On-demand dimension reduction: use only the first `dims` dimensions
  /// from now on (multiple of 128, <= trained dims). Norms come from the
  /// norm2 sub-norm memory ("Updated" mode); pass `constant_norms = true`
  /// to model the naive stale-norm variant of Figure 5.
  void set_active_dims(std::size_t dims, bool constant_norms = false);

  /// Quantize the class memory to `bw` bits (the spec bw input).
  void quantize(int bit_width);

  /// Enter a voltage-over-scaled operating point: flips each class-memory
  /// bit with the point's error rate and records the power reductions for
  /// subsequent energy reports.
  void apply_voltage_scaling(double bit_error_rate);

  /// Use an exact divider instead of the Mitchell approximation (for
  /// verification; the silicon always uses Mitchell).
  void set_exact_divider(bool exact) { exact_divider_ = exact; }

  /// Snapshot the trained class memories + norms (the config-port dump).
  model::HdcClassifier snapshot_model() const { return require_model(); }

  /// Restore a previously snapshotted model (the offline-training load path
  /// of the config port, §4.1) and reset every low-power knob to nominal.
  void restore_model(model::HdcClassifier m);

  // ---- accounting ----

  const AccessCounts& counts() const { return counts_; }
  void reset_counts() { counts_ = {}; }
  double elapsed_seconds() const { return cycles_.seconds(counts_); }
  /// Total energy (J) of everything since the last reset_counts().
  double energy_j() const { return energy_.energy_j(spec_, counts_, vos_); }
  const VosSetting& vos() const { return vos_; }
  const EnergyModel& energy_model() const { return energy_; }
  const CycleModel& cycle_model() const { return cycles_; }

  const model::HdcClassifier& classifier() const { return require_model(); }
  const enc::GenericEncoder& encoder() const { return encoder_; }

 private:
  const model::HdcClassifier& require_model() const;
  /// Class index with the best (dot^2 / norm) score, compared in the log
  /// domain via Mitchell, or exactly through the classifier's
  /// predict_reduced() when exact_divider_ is set.
  int best_class(const hdc::IntHV& encoded) const;

  AppSpec spec_;
  ArchConstants hw_;
  CycleModel cycles_;
  EnergyModel energy_;
  enc::GenericEncoder encoder_;
  std::optional<model::HdcClassifier> model_;
  std::size_t active_dims_;
  bool constant_norms_ = false;
  bool exact_divider_ = false;
  VosSetting vos_;
  Rng fault_rng_;
  AccessCounts counts_;
};

}  // namespace generic::arch
