// Robustness fuzzing: the server decodes attacker-controlled bytes, so no
// corruption, truncation, or random garbage may crash, hang, or allocate
// absurdly — decoders return nullopt (or a valid message) and nothing else.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "net/clip_fetch.hpp"
#include "net/server.hpp"
#include "net/snapshot.hpp"
#include "net/wire.hpp"
#include "sim/crowd.hpp"
#include "util/rng.hpp"

namespace {

using namespace svg::net;

std::vector<std::uint8_t> valid_upload_bytes(std::uint64_t seed) {
  svg::sim::CityModel city;
  svg::util::Xoshiro256 rng(seed);
  UploadMessage msg;
  msg.video_id = seed;
  for (const auto& r : svg::sim::random_representative_fovs(
           16, city, 1'400'000'000'000, 3'600'000, rng)) {
    msg.segments.push_back(r);
  }
  return encode_upload(msg);
}

TEST(WireFuzzTest, UploadDecoderSurvivesTruncationAtEveryOffset) {
  const auto bytes = valid_upload_bytes(1);
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    const std::span<const std::uint8_t> prefix(bytes.data(), cut);
    // Must not crash; result is nullopt or (for prefixes that happen to
    // be self-consistent) a valid message.
    (void)decode_upload(prefix);
  }
  SUCCEED();
}

TEST(WireFuzzTest, UploadDecoderSurvivesSingleByteCorruption) {
  const auto original = valid_upload_bytes(2);
  svg::util::Xoshiro256 rng(3);
  for (int trial = 0; trial < 2000; ++trial) {
    auto bytes = original;
    const std::size_t pos = rng.bounded(bytes.size());
    bytes[pos] ^= static_cast<std::uint8_t>(1 + rng.bounded(255));
    const auto out = decode_upload(bytes);
    if (out) {
      // If it still decodes, the structure must be sane.
      ASSERT_LE(out->segments.size(), 1'000'000u);
      for (const auto& s : out->segments) {
        ASSERT_LE(s.t_start, s.t_end);
      }
    }
  }
}

TEST(WireFuzzTest, AllDecodersSurviveRandomGarbage) {
  svg::util::Xoshiro256 rng(4);
  for (int trial = 0; trial < 3000; ++trial) {
    std::vector<std::uint8_t> garbage(rng.bounded(200));
    for (auto& b : garbage) {
      b = static_cast<std::uint8_t>(rng.bounded(256));
    }
    (void)decode_upload(garbage);
    (void)decode_query(garbage);
    (void)decode_results(garbage);
    (void)decode_clip_request(garbage);
    (void)decode_clip_response(garbage);
    (void)decode_snapshot(garbage);
  }
  SUCCEED();
}

TEST(WireFuzzTest, SnapshotSurvivesCorruption) {
  svg::sim::CityModel city;
  svg::util::Xoshiro256 rng(5);
  const auto reps = svg::sim::random_representative_fovs(
      64, city, 1'400'000'000'000, 3'600'000, rng);
  const auto original = encode_snapshot(reps);
  for (int trial = 0; trial < 1000; ++trial) {
    auto bytes = original;
    const std::size_t pos = rng.bounded(bytes.size());
    bytes[pos] ^= static_cast<std::uint8_t>(1 + rng.bounded(255));
    const auto out = decode_snapshot(bytes);
    if (out) {
      for (const auto& r : *out) {
        ASSERT_LE(r.t_start, r.t_end);
      }
    }
  }
}

TEST(WireFuzzTest, ClipResponseLengthFieldCannotOverallocate) {
  // A response claiming a multi-GB payload with a short body must be
  // rejected before any allocation of that size.
  ByteWriter w;
  w.put_u8(kMsgClipResponse);
  w.put_u8(1);                       // found
  w.put_varint(1);                   // video id
  w.put_svarint(0);                  // t_start
  w.put_varint(1000);                // duration
  w.put_varint(1ULL << 40);          // claimed payload: 1 TB
  w.put_u8(0);                       // ...but only one byte follows
  const auto out = decode_clip_response(w.bytes());
  EXPECT_FALSE(out.has_value());
}

// Decoders add untrusted varints in int64: a sum that leaves the range
// must reject the message instead of overflowing (signed overflow is UB,
// and a wrapped time window would reach the index inverted).
constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();

std::vector<std::uint8_t> query_bytes(std::int64_t t_start,
                                      std::uint64_t dur) {
  ByteWriter w;
  w.put_u8(kMsgQuery);
  w.put_svarint(t_start);
  w.put_varint(dur);
  w.put_svarint(399'042'000);   // lat, 1e-7 degrees
  w.put_svarint(1'164'074'000);  // lng
  w.put_varint(50);             // radius_m
  w.put_varint(10);             // top_n
  return w.take();
}

TEST(WireFuzzTest, QueryDecoderRejectsTimeWindowOverflow) {
  EXPECT_FALSE(decode_query(query_bytes(kMax, 1)).has_value());
  // A duration above INT64_MAX reads as negative; adding it to a negative
  // start leaves the range below.
  EXPECT_FALSE(decode_query(query_bytes(-1, 1ULL << 63)).has_value());
  // The last representable window still decodes, exactly.
  const auto edge = decode_query(query_bytes(kMax - 1, 1));
  ASSERT_TRUE(edge.has_value());
  EXPECT_EQ(edge->t_start, kMax - 1);
  EXPECT_EQ(edge->t_end, kMax);
}

/// A legacy v1 upload (no crc — phone bytes reach the delta decode as-is)
/// of two segments; `second` holds the second record's deltas, the first
/// record places the segment at the int64 extreme of every field.
std::vector<std::uint8_t> v1_upload_bytes(std::int64_t dlat,
                                          std::int64_t dlng,
                                          std::int64_t dt,
                                          std::uint64_t dur) {
  ByteWriter w;
  w.put_u8(kMsgUpload);
  w.put_varint(7);  // video id
  w.put_varint(2);  // segments
  w.put_varint(0);
  w.put_svarint(kMax);  // lat
  w.put_svarint(kMin);  // lng
  w.put_u16(0);
  w.put_svarint(kMax - 10);  // t_start
  w.put_varint(0);
  w.put_varint(1);
  w.put_svarint(dlat);
  w.put_svarint(dlng);
  w.put_u16(0);
  w.put_svarint(dt);
  w.put_varint(dur);
  return w.take();
}

TEST(WireFuzzTest, UploadDecoderRejectsDeltaOverflow) {
  EXPECT_FALSE(decode_upload(v1_upload_bytes(1, 0, 0, 0)).has_value());
  EXPECT_FALSE(decode_upload(v1_upload_bytes(0, -1, 0, 0)).has_value());
  EXPECT_FALSE(decode_upload(v1_upload_bytes(0, 0, 11, 0)).has_value());
  EXPECT_FALSE(decode_upload(v1_upload_bytes(0, 0, 0, 11)).has_value());
  // Every sum landing exactly on the boundary is still a valid message.
  const auto edge = decode_upload(v1_upload_bytes(0, 0, 5, 5));
  ASSERT_TRUE(edge.has_value());
  ASSERT_EQ(edge->segments.size(), 2u);
  EXPECT_EQ(edge->segments[1].t_start, kMax - 5);
  EXPECT_EQ(edge->segments[1].t_end, kMax);
}

TEST(WireFuzzTest, ResultsAndClipDecodersRejectTimeOverflow) {
  const auto results = [](std::int64_t ts, std::uint64_t dur) {
    ByteWriter w;
    w.put_u8(kMsgResults);
    w.put_varint(1);
    w.put_varint(3);  // video id
    w.put_varint(4);  // segment id
    w.put_svarint(ts);
    w.put_varint(dur);
    w.put_varint(120);  // distance, 0.1 m
    return w.take();
  };
  EXPECT_FALSE(decode_results(results(kMax, 1)).has_value());
  ASSERT_TRUE(decode_results(results(kMax - 1, 1)).has_value());
  EXPECT_EQ(decode_results(results(kMax - 1, 1))->entries[0].t_end, kMax);

  ByteWriter req;
  req.put_u8(kMsgClipRequest);
  req.put_varint(3);
  req.put_svarint(kMax);
  req.put_varint(1);
  EXPECT_FALSE(decode_clip_request(req.bytes()).has_value());

  ByteWriter resp;
  resp.put_u8(kMsgClipResponse);
  resp.put_u8(1);  // found
  resp.put_varint(3);
  resp.put_svarint(kMax);
  resp.put_varint(1);
  resp.put_varint(0);  // empty payload
  EXPECT_FALSE(decode_clip_response(resp.bytes()).has_value());
}

std::vector<std::uint8_t> valid_upload_v2_bytes(std::uint64_t seed,
                                                std::uint64_t upload_id) {
  svg::sim::CityModel city;
  svg::util::Xoshiro256 rng(seed);
  UploadMessage msg;
  msg.upload_id = upload_id;
  msg.video_id = seed;
  for (const auto& r : svg::sim::random_representative_fovs(
           16, city, 1'400'000'000'000, 3'600'000, rng)) {
    msg.segments.push_back(r);
  }
  return encode_upload(msg);
}

TEST(WireFuzzTest, LegacyIdlessUploadKeepsV1WireFormat) {
  // upload_id == 0 must emit the original kMsgUpload layout, so pre-retry
  // clients and archived captures stay decodable — and decode back with
  // upload_id == 0.
  const auto v1 = valid_upload_bytes(11);
  ASSERT_FALSE(v1.empty());
  EXPECT_EQ(v1[0], kMsgUpload);
  const auto back = decode_upload(v1);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->upload_id, 0u);
  EXPECT_EQ(back->segments.size(), 16u);

  const auto v2 = valid_upload_v2_bytes(11, 99);
  EXPECT_EQ(v2[0], kMsgUploadV2);
  const auto back2 = decode_upload(v2);
  ASSERT_TRUE(back2.has_value());
  EXPECT_EQ(back2->upload_id, 99u);
}

TEST(WireFuzzTest, UploadV2DecoderSurvivesTruncationAtEveryOffset) {
  const auto bytes = valid_upload_v2_bytes(12, 0xDEADBEEF);
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    // The CRC trailer means no strict prefix can decode.
    EXPECT_FALSE(
        decode_upload(std::span<const std::uint8_t>(bytes.data(), cut))
            .has_value());
  }
}

TEST(WireFuzzTest, UploadV2CrcRejectsEveryBitFlip) {
  // v2 is the retry path: a retransmitted-and-corrupted upload that still
  // decoded would poison the index *and* be deduped against its honest
  // twin. The CRC trailer must reject all of these.
  const auto original = valid_upload_v2_bytes(13, 7777);
  svg::util::Xoshiro256 rng(14);
  for (int trial = 0; trial < 2000; ++trial) {
    auto bytes = original;
    const std::size_t flips = 1 + rng.bounded(3);
    for (std::size_t f = 0; f < flips; ++f) {
      bytes[rng.bounded(bytes.size())] ^=
          static_cast<std::uint8_t>(1u << rng.bounded(8));
    }
    if (bytes == original) continue;  // flips may cancel out
    EXPECT_FALSE(decode_upload(bytes).has_value()) << "trial " << trial;
  }
}

TEST(WireFuzzTest, UploadAckSurvivesTruncationCorruptionAndGarbage) {
  UploadAck ack;
  ack.upload_id = 123456789;
  ack.status = UploadAckStatus::kAccepted;
  ack.segments_indexed = 42;
  const auto original = encode_upload_ack(ack);

  const auto back = decode_upload_ack(original);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->upload_id, ack.upload_id);
  EXPECT_EQ(back->status, ack.status);
  EXPECT_EQ(back->segments_indexed, ack.segments_indexed);

  for (std::size_t cut = 0; cut < original.size(); ++cut) {
    EXPECT_FALSE(
        decode_upload_ack(
            std::span<const std::uint8_t>(original.data(), cut))
            .has_value());
  }
  svg::util::Xoshiro256 rng(15);
  for (int trial = 0; trial < 2000; ++trial) {
    auto bytes = original;
    bytes[rng.bounded(bytes.size())] ^=
        static_cast<std::uint8_t>(1 + rng.bounded(255));
    EXPECT_FALSE(decode_upload_ack(bytes).has_value());
  }
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<std::uint8_t> garbage(rng.bounded(64));
    for (auto& b : garbage) b = static_cast<std::uint8_t>(rng.bounded(256));
    (void)decode_upload_ack(garbage);
  }
}

TEST(WireFuzzTest, AckedIngestPathSurvivesFuzzedUploads) {
  CloudServer server;
  const auto good = valid_upload_v2_bytes(16, 555);
  svg::util::Xoshiro256 rng(17);
  for (int trial = 0; trial < 500; ++trial) {
    auto bytes = good;
    const std::size_t flips = 1 + rng.bounded(4);
    for (std::size_t f = 0; f < flips; ++f) {
      bytes[rng.bounded(bytes.size())] ^=
          static_cast<std::uint8_t>(1 + rng.bounded(255));
    }
    if (const auto ack_bytes = server.handle_upload_acked(bytes)) {
      const auto ack = decode_upload_ack(*ack_bytes);
      ASSERT_TRUE(ack.has_value());  // whatever we emit must decode
    }
  }
  // The genuine upload still lands exactly once afterwards.
  const auto ack_bytes = server.handle_upload_acked(good);
  ASSERT_TRUE(ack_bytes.has_value());
  const auto ack = decode_upload_ack(*ack_bytes);
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(ack->status, UploadAckStatus::kAccepted);
  EXPECT_EQ(server.indexed_segments(), 16u);
}

TEST(WireFuzzTest, ServerHandlesFuzzedUploadsWithoutStateCorruption) {
  CloudServer server;
  const auto good = valid_upload_bytes(6);
  svg::util::Xoshiro256 rng(7);
  std::size_t accepted = 0;
  for (int trial = 0; trial < 500; ++trial) {
    auto bytes = good;
    const std::size_t flips = 1 + rng.bounded(4);
    for (std::size_t f = 0; f < flips; ++f) {
      bytes[rng.bounded(bytes.size())] ^=
          static_cast<std::uint8_t>(1 + rng.bounded(255));
    }
    if (server.handle_upload(bytes)) ++accepted;
  }
  // Regardless of what was accepted, the server still works.
  ASSERT_TRUE(server.handle_upload(good));
  const auto stats = server.stats();
  EXPECT_EQ(stats.uploads_accepted, accepted + 1);
  EXPECT_EQ(stats.uploads_rejected, 500 - accepted);
}

}  // namespace
