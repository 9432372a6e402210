#pragma once
// Byte-level message serialization. The paper's testbed moves detection
// lists and scheduling decisions over TCP between cameras and the central
// scheduler; we serialize to the same wire shape and charge transfer time
// through net::LinkModel, so message sizes are real even though transport
// is in-process.

#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "geometry/bbox.hpp"

namespace mvs::net {

class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void f64(double v);
  void bbox(const geom::BBox& b);

  const std::vector<std::uint8_t>& bytes() const { return buf_; }
  std::size_t size() const { return buf_.size(); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Reader over a byte span; all getters return nullopt past the end, so a
/// truncated message fails loudly instead of yielding garbage.
class ByteReader {
 public:
  explicit ByteReader(const std::vector<std::uint8_t>& buf) : buf_(buf) {}

  std::optional<std::uint8_t> u8();
  std::optional<std::uint32_t> u32();
  std::optional<std::uint64_t> u64();
  std::optional<std::int32_t> i32();
  std::optional<double> f64();
  std::optional<geom::BBox> bbox();

  bool exhausted() const { return pos_ == buf_.size(); }
  std::size_t remaining() const { return buf_.size() - pos_; }

 private:
  bool need(std::size_t n) const { return pos_ + n <= buf_.size(); }
  const std::vector<std::uint8_t>& buf_;
  std::size_t pos_ = 0;
};

}  // namespace mvs::net
