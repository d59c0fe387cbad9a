#include "serve/policy.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace generic::serve {

std::string_view outcome_name(Outcome o) {
  switch (o) {
    case Outcome::kOk: return "ok";
    case Outcome::kRetried: return "retried";
    case Outcome::kDegraded: return "degraded";
    case Outcome::kShed: return "shed";
    case Outcome::kTimeout: return "timeout";
    case Outcome::kFailed: return "failed";
  }
  return "unknown";
}

std::vector<std::size_t> dims_ladder(std::size_t dims, std::size_t chunk,
                                     std::size_t min_dims) {
  if (dims == 0 || chunk == 0 || dims % chunk != 0)
    throw std::invalid_argument("dims_ladder: dims must be a chunk multiple");
  // Floor rounded up to a whole chunk, never above dims, never below one
  // chunk (predict with zero chunks is meaningless).
  std::size_t floor_dims = std::max(min_dims, chunk);
  floor_dims = ((floor_dims + chunk - 1) / chunk) * chunk;
  floor_dims = std::min(floor_dims, dims);

  std::vector<std::size_t> ladder;
  for (std::size_t d = dims; d > floor_dims; d /= 2) {
    // Halving can leave a non-chunk multiple (e.g. 384/2); round down to
    // the chunk grid so every rung is predict_reduced-legal.
    const std::size_t rung = (d / chunk) * chunk;
    if (ladder.empty() || ladder.back() != rung) ladder.push_back(rung);
  }
  if (ladder.empty() || ladder.back() != floor_dims)
    ladder.push_back(floor_dims);
  return ladder;
}

std::vector<bool> rung_mask(std::size_t dims, std::size_t chunk,
                            std::size_t num_chunks,
                            const std::vector<bool>& chunk_ok) {
  std::vector<bool> mask(num_chunks, false);
  for (std::size_t k = 0; k < dims / chunk; ++k)
    mask[k] = chunk_ok.empty() || chunk_ok[k];
  return mask;
}

std::vector<Request> poisson_trace(std::uint64_t seed, std::size_t n,
                                   std::size_t rate_rps,
                                   std::uint64_t deadline_us,
                                   std::size_t num_queries) {
  Rng gen(seed ^ 0x0A11CE5ULL);
  const double mean_gap_us = 1e6 / static_cast<double>(rate_rps);
  std::vector<Request> trace(n);
  std::uint64_t vt = 0;
  for (std::size_t id = 0; id < n; ++id) {
    const double gap = -std::log(1.0 - gen.uniform()) * mean_gap_us;
    vt += static_cast<std::uint64_t>(std::max<long long>(std::llround(gap), 1));
    Request& r = trace[id];
    r.id = id;
    r.arrival_us = vt;
    r.deadline_us = vt + deadline_us;
    r.query = static_cast<std::size_t>(gen.below(num_queries));
  }
  return trace;
}

std::uint64_t BackoffPolicy::delay_us(std::uint32_t attempt, Rng& rng) const {
  if (attempt == 0) throw std::invalid_argument("backoff: attempt is 1-based");
  const double exp = static_cast<double>(base_us_) *
                     std::pow(2.0, static_cast<double>(attempt - 1));
  const double u = rng.uniform();
  const double scaled = exp * (1.0 + jitter_ * (2.0 * u - 1.0));
  return static_cast<std::uint64_t>(std::llround(std::max(scaled, 1.0)));
}

DegradeController::DegradeController(std::vector<std::size_t> ladder,
                                     const ServeConfig& cfg)
    : ladder_(std::move(ladder)),
      alpha_(cfg.ewma_alpha),
      slo_us_(static_cast<double>(cfg.slo_us)),
      step_up_frac_(cfg.step_up_frac),
      low_water_(cfg.low_water),
      cooldown_(cfg.cooldown),
      since_change_(cfg.cooldown) {  // first move allowed immediately
  if (ladder_.empty())
    throw std::invalid_argument("DegradeController: empty ladder");
}

void DegradeController::on_completion(std::uint64_t latency_us,
                                      std::size_t queue_depth) {
  const double lat = static_cast<double>(latency_us);
  ewma_us_ = seeded_ ? alpha_ * lat + (1.0 - alpha_) * ewma_us_ : lat;
  seeded_ = true;
  if (since_change_ < cooldown_) {
    ++since_change_;
    return;
  }
  if (ewma_us_ > slo_us_ && rung_ + 1 < ladder_.size()) {
    ++rung_;
    ++steps_down_;
    since_change_ = 0;
  } else if (ewma_us_ < step_up_frac_ * slo_us_ && rung_ > 0 &&
             queue_depth <= low_water_) {
    --rung_;
    ++steps_up_;
    since_change_ = 0;
  }
}

bool DegradeController::force_step_down() {
  if (rung_ + 1 >= ladder_.size()) return false;
  ++rung_;
  ++steps_down_;
  since_change_ = 0;
  return true;
}

}  // namespace generic::serve
