#pragma once
// Bandwidth/latency link model for the camera <-> scheduler network
// (paper Sec. IV-A1: wired, 100 Mbps downlink / 20 Mbps uplink).

#include <cstddef>

namespace mvs::net {

class LinkModel {
 public:
  struct Config {
    double uplink_mbps = 20.0;     ///< camera -> scheduler
    double downlink_mbps = 100.0;  ///< scheduler -> camera
    double base_latency_ms = 1.0;  ///< per-message propagation + stack cost
  };

  LinkModel() = default;
  explicit LinkModel(Config cfg) : cfg_(cfg) {}

  /// Transfer time of an uplink message of `bytes` payload.
  double upload_ms(std::size_t bytes) const;
  /// Transfer time of a downlink message of `bytes` payload.
  double download_ms(std::size_t bytes) const;

  const Config& config() const { return cfg_; }

 private:
  Config cfg_{};
};

}  // namespace mvs::net
