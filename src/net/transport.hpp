#pragma once
// Camera <-> scheduler transport abstraction for the key-frame cycle.
//
// The pipeline drives one cycle per key frame:
//   1. every online camera submits its detection-list uplink (send_uplink);
//   2. run_uplinks() resolves which uplinks reached the scheduler — the
//      central stage then plans over exactly those cameras;
//   3. the scheduler submits per-camera assignment downlinks
//      (send_downlink);
//   4. finish_cycle() resolves the downlinks and reports the cycle's
//      communication time plus loss/retry/queueing accounting.
//
// Two implementations exist: IdealTransport (below) reproduces the
// closed-form net::LinkModel arithmetic bit-exactly — a clean wired link
// with no queueing, loss or faults — and netsim::SimTransport, the
// discrete-event lossy transport.

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "net/link.hpp"
#include "util/enum_names.hpp"

namespace mvs::net {

enum class TransportKind {
  kIdeal,  ///< closed-form LinkModel; bit-exact with the analytic numbers
  kLossy,  ///< netsim discrete-event queues with loss/jitter/dropout
};

/// Config and CLI spellings ("netsim" is an alias of lossy).
inline constexpr util::EnumName kTransportNames[] = {
    util::enum_entry("ideal", TransportKind::kIdeal),
    util::enum_entry("lossy", TransportKind::kLossy),
    util::enum_entry("netsim", TransportKind::kLossy)};

const char* to_string(TransportKind kind);
/// Parse a kTransportNames spelling (case-insensitive); nullopt on unknown
/// names.
std::optional<TransportKind> parse_transport(std::string name);

/// Something noteworthy that happened to one message during a cycle.
struct MessageEvent {
  enum class Kind {
    kRetry,  ///< sender retransmitted after a silent retry timeout
    kDrop,   ///< message lost for good (retry budget exhausted)
  };
  Kind kind = Kind::kRetry;
  int camera = -1;
  bool uplink = true;     ///< direction of the affected message
  double time_ms = 0.0;   ///< cycle-relative time of the event
};

/// Result of the uplink half of a cycle.
struct UplinkReport {
  double elapsed_ms = 0.0;
  /// delivered[i] != 0 iff camera i's detection list reached the scheduler.
  std::vector<char> delivered;
};

/// Full-cycle accounting returned by finish_cycle().
struct CycleReport {
  double comm_ms = 0.0;   ///< end-to-end communication time of the cycle
  double queue_ms = 0.0;  ///< total time messages waited in FIFO queues
  int retries = 0;        ///< retransmissions across both directions
  int dropped_msgs = 0;   ///< messages lost after exhausting retries
  /// downlink_delivered[i] != 0 iff camera i received its assignment.
  std::vector<char> downlink_delivered;
  std::vector<MessageEvent> events;
};

class Transport {
 public:
  virtual ~Transport() = default;

  /// Is `camera` connected at evaluation frame `frame`? Offline cameras
  /// neither detect nor communicate until they rejoin.
  virtual bool camera_online(int camera, long frame) = 0;

  /// Queue camera `camera`'s key-frame uplink of `bytes` payload.
  virtual void send_uplink(long frame, int camera, std::size_t bytes) = 0;

  /// Resolve all queued uplinks; the central stage must only consume
  /// detection lists whose report entry says delivered.
  virtual UplinkReport run_uplinks(long frame) = 0;

  /// Queue the scheduler's downlink of `bytes` payload to camera `camera`.
  virtual void send_downlink(long frame, int camera, std::size_t bytes) = 0;

  /// Resolve the downlinks, return the cycle accounting, reset for the
  /// next key frame.
  virtual CycleReport finish_cycle(long frame) = 0;
};

/// The pre-netsim behaviour behind the Transport interface: accumulates the
/// cycle's byte totals and charges LinkModel::upload_ms / download_ms on the
/// sums — the exact expression the pipeline used to evaluate inline, so
/// per-frame comm_ms is bit-identical to the closed-form numbers.
class IdealTransport final : public Transport {
 public:
  explicit IdealTransport(std::size_t cameras, LinkModel link = LinkModel{});

  bool camera_online(int camera, long frame) override;
  void send_uplink(long frame, int camera, std::size_t bytes) override;
  UplinkReport run_uplinks(long frame) override;
  void send_downlink(long frame, int camera, std::size_t bytes) override;
  CycleReport finish_cycle(long frame) override;

  const LinkModel& link() const { return link_; }

 private:
  LinkModel link_;
  std::size_t cameras_ = 0;
  std::size_t up_bytes_ = 0, down_bytes_ = 0;
  std::vector<char> up_sent_, down_sent_;
};

}  // namespace mvs::net
