#include "net/link.hpp"

namespace mvs::net {

namespace {
double transfer_ms(std::size_t bytes, double mbps, double base_ms) {
  const double bits = static_cast<double>(bytes) * 8.0;
  return base_ms + bits / (mbps * 1e6) * 1e3;
}
}  // namespace

double LinkModel::upload_ms(std::size_t bytes) const {
  return transfer_ms(bytes, cfg_.uplink_mbps, cfg_.base_latency_ms);
}

double LinkModel::download_ms(std::size_t bytes) const {
  return transfer_ms(bytes, cfg_.downlink_mbps, cfg_.base_latency_ms);
}

}  // namespace mvs::net
