#include "arch/cycle_model.h"

namespace generic::arch {

AccessCounts& AccessCounts::operator+=(const AccessCounts& o) {
  cycles += o.cycles;
  feature_reads += o.feature_reads;
  level_reads += o.level_reads;
  id_reads += o.id_reads;
  class_reads += o.class_reads;
  class_writes += o.class_writes;
  score_accesses += o.score_accesses;
  norm_accesses += o.norm_accesses;
  mac_ops += o.mac_ops;
  divider_ops += o.divider_ops;
  return *this;
}

AccessCounts AccessCounts::scaled(std::uint64_t factor) const {
  AccessCounts out = *this;
  out.cycles *= factor;
  out.feature_reads *= factor;
  out.level_reads *= factor;
  out.id_reads *= factor;
  out.class_reads *= factor;
  out.class_writes *= factor;
  out.score_accesses *= factor;
  out.norm_accesses *= factor;
  out.mac_ops *= factor;
  out.divider_ops *= factor;
  return out;
}

std::uint64_t CycleModel::passes(const AppSpec& spec) const {
  return (spec.dims + hw_.m - 1) / hw_.m;
}

AccessCounts CycleModel::encode_input(const AppSpec& spec) const {
  AccessCounts c;
  const std::uint64_t p = passes(spec);
  const std::uint64_t windows = spec.features - spec.window + 1;
  // Each pass streams the d stored features through the level-register
  // stack (one feature fetch + one level-row read per element per pass).
  c.feature_reads = p * spec.features;
  c.level_reads = p * spec.features;
  // The id seed is read once per m window-steps thanks to the tmp register
  // (§4.3.1); id generation itself is a shift, not a memory access.
  c.id_reads = spec.use_ids ? (p * windows + hw_.m - 1) / hw_.m : 0;
  c.cycles = p * spec.features;
  return c;
}

AccessCounts CycleModel::infer_input(const AppSpec& spec) const {
  AccessCounts c = encode_input(spec);
  const std::uint64_t p = passes(spec);
  // Search is pipelined with encoding: after each pass, one row from each
  // of the m class memories per class, accumulated into the score memory.
  c.class_reads += p * spec.classes;
  c.score_accesses += p * spec.classes;
  c.mac_ops += p * spec.classes * hw_.m;
  c.cycles += p * spec.classes;
  // Finalize: read norm2, divide and compare per class.
  c.norm_accesses += spec.classes;
  c.divider_ops += spec.classes;
  c.cycles += spec.classes + 4;  // divider latency tail
  return c;
}

AccessCounts CycleModel::retrain_update(const AppSpec& spec) const {
  AccessCounts c;
  const std::uint64_t p = passes(spec);
  // Per class: read class rows, latch-add the stashed encoding rows, write
  // back -> 3 x D/m cycles (§4.2.2); two classes change per misprediction.
  c.class_reads = 2 * 2 * p;  // class row + temporary encoding row
  c.class_writes = 2 * p;
  c.cycles = 2 * 3 * p;
  // Squared-norm refresh of both classes (multiply-accumulate over rows,
  // pipelined with the write-back), then norm2 memory update.
  c.mac_ops += 2 * p * hw_.m;
  c.norm_accesses += 2 * (spec.dims / hw_.chunk);
  return c;
}

AccessCounts CycleModel::train_init_input(const AppSpec& spec) const {
  AccessCounts c = encode_input(spec);
  const std::uint64_t p = passes(spec);
  // Accumulate each m-dim slice into the labelled class row: read-add-write
  // one row of each class memory per pass.
  c.class_reads += p;
  c.class_writes += p;
  c.cycles += p;
  // Norm2 accumulation happens on the fly through the multiplier path.
  c.mac_ops += p * hw_.m;
  c.norm_accesses += spec.dims / hw_.chunk;
  return c;
}

AccessCounts CycleModel::cluster_input(const AppSpec& spec) const {
  // Score vs k centroids exactly like inference...
  AccessCounts c = infer_input(spec);
  const std::uint64_t p = passes(spec);
  // ...while stashing the encoded dimensions in temporary rows, then adding
  // them into the winning copy centroid (§4.2.3).
  c.class_writes += p;           // stash encoding
  c.class_reads += 2 * p;        // copy centroid + stashed encoding
  c.class_writes += p;           // write updated copy centroid
  c.cycles += 3 * p;
  return c;
}

double CycleModel::seconds(const AccessCounts& counts) const {
  return static_cast<double>(counts.cycles) / hw_.clock_hz;
}

}  // namespace generic::arch
