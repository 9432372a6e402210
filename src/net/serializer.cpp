#include "net/serializer.hpp"

namespace mvs::net {

void ByteWriter::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void ByteWriter::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void ByteWriter::f64(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  u64(bits);
}

void ByteWriter::bbox(const geom::BBox& b) {
  f64(b.x);
  f64(b.y);
  f64(b.w);
  f64(b.h);
}

std::optional<std::uint8_t> ByteReader::u8() {
  if (!need(1)) return std::nullopt;
  return buf_[pos_++];
}

std::optional<std::uint32_t> ByteReader::u32() {
  if (!need(4)) return std::nullopt;
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(buf_[pos_++]) << (8 * i);
  return v;
}

std::optional<std::uint64_t> ByteReader::u64() {
  if (!need(8)) return std::nullopt;
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(buf_[pos_++]) << (8 * i);
  return v;
}

std::optional<std::int32_t> ByteReader::i32() {
  const auto v = u32();
  if (!v) return std::nullopt;
  return static_cast<std::int32_t>(*v);
}

std::optional<double> ByteReader::f64() {
  const auto bits = u64();
  if (!bits) return std::nullopt;
  double v;
  std::memcpy(&v, &*bits, sizeof(v));
  return v;
}

std::optional<geom::BBox> ByteReader::bbox() {
  const auto x = f64();
  const auto y = f64();
  const auto w = f64();
  const auto h = f64();
  if (!x || !y || !w || !h) return std::nullopt;
  return geom::BBox{*x, *y, *w, *h};
}

}  // namespace mvs::net
