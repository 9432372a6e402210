#pragma once
// SLO burn-rate monitoring (DESIGN.md §14).
//
// Multi-window, multi-burn-rate alerting in the Google-SRE style: a fast
// window catches an acute burn quickly, a slow window confirms it is not a
// blip, and a lower clear threshold adds hysteresis so a rate hovering at
// the alert boundary does not flap. "Burn rate" is the observed bad-event
// ratio divided by the error budget: burn 1.0 consumes the budget exactly;
// burn 2.0 exhausts it in half the window.
//
// Everything here is header-only, fixed-size (no heap) and single-writer:
// one monitor belongs to one session or the plane and is pushed from that
// owner's step path only. Readers of the counters race benignly.

#include <algorithm>
#include <array>
#include <cstdint>

namespace mvs::fleet {

/// Ring of the last `size` good/bad outcomes with an O(1) running bad count.
class BurnWindow {
 public:
  static constexpr int kMaxWindow = 256;

  void configure(int size) {
    size_ = std::clamp(size, 1, kMaxWindow);
    reset();
  }

  void push(bool bad) {
    const int idx = static_cast<int>(head_ % size_);
    bad_ += static_cast<int>(bad) - static_cast<int>(ring_[static_cast<std::size_t>(idx)]);
    ring_[static_cast<std::size_t>(idx)] = bad ? 1 : 0;
    ++head_;
  }

  bool full() const { return head_ >= size_; }
  int size() const { return size_; }
  int bad() const { return bad_; }
  /// Bad-event ratio over the filled portion of the window; 0 when empty.
  double ratio() const {
    const long long n = std::min<long long>(head_, size_);
    return n == 0 ? 0.0 : static_cast<double>(bad_) / static_cast<double>(n);
  }

  void reset() {
    ring_.fill(0);
    head_ = 0;
    bad_ = 0;
  }

 private:
  std::array<std::uint8_t, kMaxWindow> ring_{};
  long long head_ = 0;
  int size_ = 1;
  int bad_ = 0;
};

struct BurnConfig {
  /// Tolerated bad-event ratio (the SLO error budget). 0 disables the
  /// monitor entirely: push() never raises.
  double error_budget = 0.0;
  int fast_window = 16;   ///< ticks; catches acute burns
  int slow_window = 64;   ///< ticks; confirms sustained burns
  double raise_mult = 2.0;  ///< raise when both burns >= this multiple
  double clear_mult = 1.0;  ///< clear when the fast burn < this multiple

  bool enabled() const { return error_budget > 0.0; }
};

/// Hysteretic two-window burn-rate monitor. push() returns +1 on the raise
/// edge, -1 on the clear edge, 0 otherwise.
class BurnMonitor {
 public:
  BurnMonitor() { configure(BurnConfig{}); }
  explicit BurnMonitor(const BurnConfig& config) { configure(config); }

  void configure(const BurnConfig& config) {
    cfg_ = config;
    fast_.configure(cfg_.fast_window);
    slow_.configure(cfg_.slow_window);
    alerting_ = false;
  }

  const BurnConfig& config() const { return cfg_; }

  int push(bool bad) {
    fast_.push(bad);
    slow_.push(bad);
    if (!cfg_.enabled()) return 0;
    if (!alerting_) {
      // Raise needs the fast window filled (no alert off a single first
      // sample) and both windows burning: fast for speed, slow to confirm.
      if (fast_.full() && fast_burn() >= cfg_.raise_mult &&
          slow_burn() >= cfg_.raise_mult) {
        alerting_ = true;
        return +1;
      }
    } else if (fast_burn() < cfg_.clear_mult) {
      alerting_ = false;
      return -1;
    }
    return 0;
  }

  bool alerting() const { return alerting_; }
  double fast_burn() const { return burn(fast_.ratio()); }
  double slow_burn() const { return burn(slow_.ratio()); }

  void reset() {
    fast_.reset();
    slow_.reset();
    alerting_ = false;
  }

 private:
  double burn(double ratio) const {
    return cfg_.error_budget > 0.0 ? ratio / cfg_.error_budget : 0.0;
  }

  BurnConfig cfg_;
  BurnWindow fast_;
  BurnWindow slow_;
  bool alerting_ = false;
};

}  // namespace mvs::fleet
