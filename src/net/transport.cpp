#include "net/transport.hpp"

#include <utility>

namespace mvs::net {

const char* to_string(TransportKind kind) {
  return util::enum_name(kTransportNames, static_cast<int>(kind));
}

std::optional<TransportKind> parse_transport(std::string name) {
  return util::enum_value<TransportKind>(kTransportNames, std::move(name));
}

IdealTransport::IdealTransport(std::size_t cameras, LinkModel link)
    : link_(link),
      cameras_(cameras),
      up_sent_(cameras, 0),
      down_sent_(cameras, 0) {}

bool IdealTransport::camera_online(int /*camera*/, long /*frame*/) {
  return true;  // the clean wired link never loses a camera
}

void IdealTransport::send_uplink(long /*frame*/, int camera,
                                 std::size_t bytes) {
  up_bytes_ += bytes;
  up_sent_[static_cast<std::size_t>(camera)] = 1;
}

UplinkReport IdealTransport::run_uplinks(long /*frame*/) {
  UplinkReport report;
  report.elapsed_ms = up_bytes_ > 0 ? link_.upload_ms(up_bytes_) : 0.0;
  report.delivered = up_sent_;
  return report;
}

void IdealTransport::send_downlink(long /*frame*/, int camera,
                                   std::size_t bytes) {
  down_bytes_ += bytes;
  down_sent_[static_cast<std::size_t>(camera)] = 1;
}

CycleReport IdealTransport::finish_cycle(long /*frame*/) {
  CycleReport report;
  // The historical closed form: one shared-medium transfer per direction.
  report.comm_ms =
      link_.upload_ms(up_bytes_) + link_.download_ms(down_bytes_);
  report.downlink_delivered = down_sent_;
  up_bytes_ = down_bytes_ = 0;
  up_sent_.assign(cameras_, 0);
  down_sent_.assign(cameras_, 0);
  return report;
}

}  // namespace mvs::net
