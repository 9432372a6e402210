#include <gtest/gtest.h>

#include <cstring>
#include <limits>

#include "net/link.hpp"
#include "net/messages.hpp"
#include "net/serializer.hpp"
#include "util/rng.hpp"

namespace mvs::net {
namespace {

TEST(Serializer, ScalarRoundTrip) {
  ByteWriter w;
  w.u8(200);
  w.u32(0xDEADBEEF);
  w.u64(0x123456789ABCDEF0ULL);
  w.i32(-42);
  w.f64(-3.25);
  ByteReader r(w.bytes());
  EXPECT_EQ(*r.u8(), 200);
  EXPECT_EQ(*r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(*r.u64(), 0x123456789ABCDEF0ULL);
  EXPECT_EQ(*r.i32(), -42);
  EXPECT_DOUBLE_EQ(*r.f64(), -3.25);
  EXPECT_TRUE(r.exhausted());
}

TEST(Serializer, BBoxRoundTrip) {
  ByteWriter w;
  w.bbox({1.5, -2.5, 30.25, 40.125});
  ByteReader r(w.bytes());
  const auto box = r.bbox();
  ASSERT_TRUE(box.has_value());
  EXPECT_DOUBLE_EQ(box->x, 1.5);
  EXPECT_DOUBLE_EQ(box->h, 40.125);
}

TEST(Serializer, TruncatedReadFails) {
  ByteWriter w;
  w.u32(7);
  std::vector<std::uint8_t> bytes = w.bytes();
  bytes.pop_back();
  ByteReader r(bytes);
  EXPECT_FALSE(r.u32().has_value());
}

TEST(Serializer, SpecialFloats) {
  ByteWriter w;
  w.f64(std::numeric_limits<double>::infinity());
  w.f64(0.0);
  ByteReader r(w.bytes());
  EXPECT_TRUE(std::isinf(*r.f64()));
  EXPECT_DOUBLE_EQ(*r.f64(), 0.0);
}

detect::Detection sample_detection(util::Rng& rng) {
  detect::Detection d;
  d.box = {rng.uniform(0, 1000), rng.uniform(0, 600), rng.uniform(5, 100),
           rng.uniform(5, 100)};
  d.cls = static_cast<detect::ObjectClass>(rng.uniform_int(0, 3));
  d.score = rng.uniform(0, 1);
  d.truth_id = static_cast<std::uint64_t>(rng.uniform_int(0, 10000));
  return d;
}

class MessageRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(MessageRoundTrip, DetectionList) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()));
  DetectionListMsg msg;
  msg.camera_id = static_cast<std::uint32_t>(GetParam());
  msg.frame_index = 12345;
  const int n = GetParam() * 3;
  for (int i = 0; i < n; ++i) msg.detections.push_back(sample_detection(rng));

  const auto decoded = DetectionListMsg::decode(msg.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->camera_id, msg.camera_id);
  EXPECT_EQ(decoded->frame_index, msg.frame_index);
  ASSERT_EQ(decoded->detections.size(), msg.detections.size());
  for (std::size_t i = 0; i < msg.detections.size(); ++i) {
    EXPECT_DOUBLE_EQ(decoded->detections[i].box.x, msg.detections[i].box.x);
    EXPECT_EQ(decoded->detections[i].truth_id, msg.detections[i].truth_id);
    EXPECT_EQ(decoded->detections[i].cls, msg.detections[i].cls);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, MessageRoundTrip, ::testing::Range(0, 6));

TEST(Messages, AssignmentRoundTrip) {
  AssignmentMsg msg;
  msg.camera_id = 3;
  msg.frame_index = 99;
  msg.assigned_keys = {1, 5, 9};
  msg.priority_order = {2, 0, 1};
  const auto decoded = AssignmentMsg::decode(msg.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->assigned_keys, msg.assigned_keys);
  EXPECT_EQ(decoded->priority_order, msg.priority_order);
}

TEST(Messages, CorruptedDecodeFails) {
  DetectionListMsg msg;
  msg.detections.push_back({});
  auto bytes = msg.encode();
  bytes.resize(bytes.size() / 2);
  EXPECT_FALSE(DetectionListMsg::decode(bytes).has_value());
}

TEST(Messages, TrailingGarbageRejected) {
  AssignmentMsg msg;
  auto bytes = msg.encode();
  bytes.push_back(0);
  EXPECT_FALSE(AssignmentMsg::decode(bytes).has_value());
}

// --- fuzz-style randomized round-trips -------------------------------------

std::uint64_t f64_bits(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// Coordinates drawn from a pool of pathological values (signed zero,
/// infinities, NaN, DBL_MAX, denormal) mixed with ordinary ones.
double extreme_value(util::Rng& rng) {
  static const double pool[] = {
      0.0,
      -0.0,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::max(),
      -std::numeric_limits<double>::max(),
      std::numeric_limits<double>::denorm_min(),
      1e-308,
  };
  const int pick = rng.uniform_int(0, 11);
  if (pick < 9) return pool[pick];
  return rng.uniform(-1e9, 1e9);
}

TEST(SerializerFuzz, DetectionListRoundTripsExtremeValues) {
  util::Rng rng(0xF0220);
  for (int iter = 0; iter < 300; ++iter) {
    DetectionListMsg msg;
    msg.camera_id = static_cast<std::uint32_t>(rng.uniform_int(0, 1 << 30));
    msg.frame_index = static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 30))
                      << 32;
    const int n = rng.uniform_int(0, 12);  // 0 = empty detection list
    for (int i = 0; i < n; ++i) {
      detect::Detection d;
      d.box = {extreme_value(rng), extreme_value(rng), extreme_value(rng),
               extreme_value(rng)};
      d.cls = static_cast<detect::ObjectClass>(rng.uniform_int(-2, 1000));
      d.score = extreme_value(rng);
      d.truth_id = iter % 3 == 0 ? ~0ULL : static_cast<std::uint64_t>(i);
      msg.detections.push_back(d);
    }
    const auto decoded = DetectionListMsg::decode(msg.encode());
    ASSERT_TRUE(decoded.has_value()) << "iteration " << iter;
    EXPECT_EQ(decoded->camera_id, msg.camera_id);
    EXPECT_EQ(decoded->frame_index, msg.frame_index);
    ASSERT_EQ(decoded->detections.size(), msg.detections.size());
    for (std::size_t i = 0; i < msg.detections.size(); ++i) {
      const auto& in = msg.detections[i];
      const auto& out = decoded->detections[i];
      // Bitwise comparison: NaN payloads and signed zeros must survive.
      EXPECT_EQ(f64_bits(out.box.x), f64_bits(in.box.x));
      EXPECT_EQ(f64_bits(out.box.y), f64_bits(in.box.y));
      EXPECT_EQ(f64_bits(out.box.w), f64_bits(in.box.w));
      EXPECT_EQ(f64_bits(out.box.h), f64_bits(in.box.h));
      EXPECT_EQ(f64_bits(out.score), f64_bits(in.score));
      EXPECT_EQ(out.cls, in.cls);
      EXPECT_EQ(out.truth_id, in.truth_id);
    }
  }
}

TEST(SerializerFuzz, AssignmentRoundTripsExtremeValues) {
  util::Rng rng(0xF0221);
  for (int iter = 0; iter < 300; ++iter) {
    AssignmentMsg msg;
    msg.camera_id = iter % 2 ? ~0u : 0u;
    msg.frame_index = iter % 3 ? ~0ULL : 0ULL;
    const int nk = rng.uniform_int(0, 20);  // 0 = empty assignment
    for (int i = 0; i < nk; ++i)
      msg.assigned_keys.push_back(
          i % 2 ? ~0ULL : static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 30)));
    const int np = rng.uniform_int(0, 8);
    for (int i = 0; i < np; ++i)
      msg.priority_order.push_back(
          static_cast<std::uint32_t>(rng.uniform_int(0, 1 << 30)));
    const auto decoded = AssignmentMsg::decode(msg.encode());
    ASSERT_TRUE(decoded.has_value()) << "iteration " << iter;
    EXPECT_EQ(decoded->camera_id, msg.camera_id);
    EXPECT_EQ(decoded->frame_index, msg.frame_index);
    EXPECT_EQ(decoded->assigned_keys, msg.assigned_keys);
    EXPECT_EQ(decoded->priority_order, msg.priority_order);
  }
}

TEST(SerializerFuzz, RandomBytesNeverCrashAndDecodeCanonically) {
  util::Rng rng(0xF0222);
  for (int iter = 0; iter < 500; ++iter) {
    std::vector<std::uint8_t> bytes(
        static_cast<std::size_t>(rng.uniform_int(0, 96)));
    for (auto& b : bytes)
      b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    // Decoding must never crash; when garbage does parse, the format is
    // canonical — re-encoding reproduces the exact input bytes.
    if (const auto det = DetectionListMsg::decode(bytes)) {
      EXPECT_EQ(det->encode(), bytes) << "iteration " << iter;
    }
    if (const auto asg = AssignmentMsg::decode(bytes)) {
      EXPECT_EQ(asg->encode(), bytes) << "iteration " << iter;
    }
  }
}

TEST(LinkModel, TransferTimes) {
  const LinkModel link;  // 20 Mbps up, 100 Mbps down, 1 ms base
  // 1 MB upload: 8e6 bits / 20e6 bps = 0.4 s = 400 ms + 1 base.
  EXPECT_NEAR(link.upload_ms(1'000'000), 401.0, 1e-6);
  EXPECT_NEAR(link.download_ms(1'000'000), 81.0, 1e-6);
  EXPECT_GT(link.upload_ms(1000), link.download_ms(1000));
}

TEST(LinkModel, ZeroBytesIsBaseLatency) {
  const LinkModel link;
  EXPECT_DOUBLE_EQ(link.upload_ms(0), 1.0);
}

}  // namespace
}  // namespace mvs::net
