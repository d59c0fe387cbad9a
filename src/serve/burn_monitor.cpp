#include "serve/burn_monitor.h"

#include <algorithm>

namespace generic::serve {

void BurnMonitor::Window::add(std::uint64_t vt, bool good) {
  events.emplace_back(vt, good);
  if (!good) ++bad;
}

void BurnMonitor::Window::prune(std::uint64_t now) {
  const std::uint64_t cutoff = now > span_us ? now - span_us : 0;
  while (!events.empty() && events.front().first < cutoff) {
    if (!events.front().second) --bad;
    events.pop_front();
  }
}

double BurnMonitor::Window::burn(double budget) const {
  if (events.empty()) return 0.0;
  const double bad_fraction =
      static_cast<double>(bad) / static_cast<double>(events.size());
  return bad_fraction / budget;
}

BurnMonitor::BurnMonitor(const ServeConfig& cfg)
    : budget_(std::max(1.0 - cfg.slo_target, 1e-9)),
      fast_threshold_(cfg.burn_fast_threshold),
      slow_threshold_(cfg.burn_slow_threshold),
      min_events_(cfg.burn_min_events),
      fast_{cfg.burn_fast_window_us, {}},
      slow_{cfg.burn_slow_window_us, {}} {}

double BurnMonitor::fast_burn() const { return fast_.burn(budget_); }
double BurnMonitor::slow_burn() const { return slow_.burn(budget_); }

std::optional<BurnAlert> BurnMonitor::observe(std::uint64_t vt, bool good) {
  fast_.add(vt, good);
  slow_.add(vt, good);
  fast_.prune(vt);
  slow_.prune(vt);

  const double fb = fast_.burn(budget_);
  const double sb = slow_.burn(budget_);
  if (!active_) {
    // Both windows hot AND both statistically meaningful: a burst of two
    // failures at boot must not page.
    if (fast_.total() >= min_events_ && slow_.total() >= min_events_ &&
        fb >= fast_threshold_ && sb >= slow_threshold_) {
      active_ = true;
      return BurnAlert{vt, true, fb, sb};
    }
  } else {
    // Hysteresis: clear only once both windows cool to half the firing
    // thresholds, so the alert doesn't flap across the boundary.
    if (fb < 0.5 * fast_threshold_ && sb < 0.5 * slow_threshold_) {
      active_ = false;
      return BurnAlert{vt, false, fb, sb};
    }
  }
  return std::nullopt;
}

}  // namespace generic::serve
