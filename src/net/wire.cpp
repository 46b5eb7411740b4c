#include "net/wire.hpp"

#include <cmath>

#include "geo/angle.hpp"
#include "store/crc32c.hpp"

namespace svg::net {

namespace {

constexpr double kDegScale = 1e7;    // 1e-7 degree fixed point
constexpr double kThetaScale = 100.0;  // 0.01 degree fixed point

std::int64_t quantize_deg(double deg) {
  return static_cast<std::int64_t>(std::llround(deg * kDegScale));
}
double dequantize_deg(std::int64_t q) {
  return static_cast<double>(q) / kDegScale;
}

/// Delta-encoded segment records — the common body of v1/v2 uploads.
void put_segment_records(ByteWriter& w,
                         std::span<const core::RepresentativeFov> segments) {
  std::int64_t prev_lat = 0, prev_lng = 0;
  std::int64_t prev_t = 0;
  for (const auto& s : segments) {
    const std::int64_t lat = quantize_deg(s.fov.p.lat);
    const std::int64_t lng = quantize_deg(s.fov.p.lng);
    w.put_varint(s.segment_id);
    w.put_svarint(lat - prev_lat);
    w.put_svarint(lng - prev_lng);
    w.put_u16(static_cast<std::uint16_t>(
        std::llround(geo::wrap_deg(s.fov.theta_deg) * kThetaScale) % 36000));
    w.put_svarint(s.t_start - prev_t);
    w.put_varint(static_cast<std::uint64_t>(s.t_end - s.t_start));
    prev_lat = lat;
    prev_lng = lng;
    prev_t = s.t_start;
  }
}

bool get_segment_records(ByteReader& r, std::uint64_t count,
                         std::uint64_t video_id,
                         std::vector<core::RepresentativeFov>& out) {
  std::int64_t prev_lat = 0, prev_lng = 0, prev_t = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    const auto seg_id = r.get_varint();
    const auto dlat = r.get_svarint();
    const auto dlng = r.get_svarint();
    const auto theta = r.get_u16();
    const auto dt = r.get_svarint();
    const auto dur = r.get_varint();
    if (!seg_id || !dlat || !dlng || !theta || !dt || !dur) return false;
    core::RepresentativeFov rep;
    rep.video_id = video_id;
    rep.segment_id = static_cast<std::uint32_t>(*seg_id);
    // Untrusted deltas: a sum that leaves int64 rejects the message.
    if (__builtin_add_overflow(prev_lat, *dlat, &prev_lat) ||
        __builtin_add_overflow(prev_lng, *dlng, &prev_lng) ||
        __builtin_add_overflow(prev_t, *dt, &prev_t) ||
        __builtin_add_overflow(prev_t, static_cast<std::int64_t>(*dur),
                               &rep.t_end)) {
      return false;
    }
    rep.fov.p.lat = dequantize_deg(prev_lat);
    rep.fov.p.lng = dequantize_deg(prev_lng);
    rep.fov.theta_deg = static_cast<double>(*theta) / kThetaScale;
    rep.t_start = prev_t;
    out.push_back(rep);
  }
  return true;
}

/// Appends crc32c of everything written so far — the v2/ack trailer.
void put_crc_trailer(ByteWriter& w) {
  w.put_u32(store::crc32c(std::span(w.bytes())));
}

/// True iff `bytes` ends with a valid crc32c of everything before it.
bool check_crc_trailer(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < 4) return false;
  const auto body = bytes.first(bytes.size() - 4);
  ByteReader tail(bytes.subspan(bytes.size() - 4));
  const auto crc = tail.get_u32();
  return crc && *crc == store::crc32c(body);
}

}  // namespace

// --- upload -----------------------------------------------------------------

std::vector<std::uint8_t> encode_upload(const UploadMessage& m) {
  ByteWriter w;
  if (m.upload_id == 0) {
    // Legacy v1 — byte-identical to the pre-upload_id format.
    w.put_u8(kMsgUpload);
    w.put_varint(m.video_id);
    w.put_varint(m.segments.size());
    put_segment_records(w, m.segments);
    return w.take();
  }
  w.put_u8(kMsgUploadV2);
  w.put_varint(m.upload_id);
  w.put_varint(m.video_id);
  w.put_varint(m.segments.size());
  put_segment_records(w, m.segments);
  if (m.trace_id != 0) {
    // Optional trailing trace context, covered by the crc. Untraced
    // messages skip it so their bytes match pre-trace encoders.
    w.put_varint(m.trace_id);
    w.put_varint(m.parent_span_id);
  }
  if (m.has_route_epoch) {
    // Optional fence stamp, stored as epoch + 1 (epoch 0 is a valid
    // table, the trailing-field rule wants non-zero). Unstamped messages
    // skip it so their bytes match pre-fencing encoders.
    w.put_varint(m.route_epoch + 1);
  }
  put_crc_trailer(w);
  return w.take();
}

std::optional<UploadMessage> decode_upload(
    std::span<const std::uint8_t> bytes) {
  if (bytes.empty()) return std::nullopt;
  const std::uint8_t tag = bytes.front();
  UploadMessage m;
  if (tag == kMsgUploadV2) {
    // The checksum gates everything: corrupted v2 bytes must not decode
    // into a plausible-but-wrong message (the chaos tests rely on this).
    if (!check_crc_trailer(bytes)) return std::nullopt;
    ByteReader r(bytes.first(bytes.size() - 4));
    (void)r.get_u8();
    const auto uid = r.get_varint();
    const auto vid = r.get_varint();
    const auto count = r.get_varint();
    if (!uid || *uid == 0 || !vid || !count) return std::nullopt;
    m.upload_id = *uid;
    m.video_id = *vid;
    if (!get_segment_records(r, *count, *vid, m.segments)) return std::nullopt;
    if (r.remaining() > 0) {
      // Trailing optional fields — varints are self-delimiting, so the
      // count picks the shape: 1 = fence stamp, 2 = trace context,
      // 3 = trace context then fence stamp. Anything else is malformed.
      std::uint64_t tail[3] = {0, 0, 0};
      std::size_t n = 0;
      while (r.remaining() > 0) {
        if (n == 3) return std::nullopt;
        const auto v = r.get_varint();
        if (!v) return std::nullopt;
        tail[n++] = *v;
      }
      if (n == 1) {
        if (tail[0] == 0) return std::nullopt;
        m.route_epoch = tail[0] - 1;
        m.has_route_epoch = true;
      } else {
        if (tail[0] == 0) return std::nullopt;  // trace_id must be non-zero
        m.trace_id = tail[0];
        m.parent_span_id = tail[1];
        if (n == 3) {
          if (tail[2] == 0) return std::nullopt;
          m.route_epoch = tail[2] - 1;
          m.has_route_epoch = true;
        }
      }
    }
    return m;
  }
  if (tag != kMsgUpload) return std::nullopt;
  ByteReader r(bytes);
  (void)r.get_u8();
  const auto vid = r.get_varint();
  const auto count = r.get_varint();
  if (!vid || !count) return std::nullopt;
  m.video_id = *vid;
  if (!get_segment_records(r, *count, *vid, m.segments)) return std::nullopt;
  return m;
}

// --- upload ack -------------------------------------------------------------

std::vector<std::uint8_t> encode_upload_ack(const UploadAck& m) {
  ByteWriter w;
  w.put_u8(kMsgUploadAck);
  w.put_u8(static_cast<std::uint8_t>(m.status));
  w.put_varint(m.upload_id);
  w.put_varint(m.segments_indexed);
  if (m.status == UploadAckStatus::kStaleEpoch) {
    // The trailing slot carries the rejecting node's epoch (+ 1 for the
    // non-zero rule) so the sender can tell how far behind it is.
    w.put_varint(m.node_epoch + 1);
  } else if (m.retry_after_ms != 0) {
    // Optional trailing retry-after hint, covered by the crc. Hint-less
    // acks skip it so their bytes match pre-hint encoders.
    w.put_varint(m.retry_after_ms);
  }
  put_crc_trailer(w);
  return w.take();
}

std::optional<UploadAck> decode_upload_ack(
    std::span<const std::uint8_t> bytes) {
  if (bytes.empty() || bytes.front() != kMsgUploadAck) return std::nullopt;
  if (!check_crc_trailer(bytes)) return std::nullopt;
  ByteReader r(bytes.first(bytes.size() - 4));
  (void)r.get_u8();
  const auto status = r.get_u8();
  const auto uid = r.get_varint();
  const auto segs = r.get_varint();
  if (!status || *status > 4 || !uid || !segs) return std::nullopt;
  UploadAck m;
  m.status = static_cast<UploadAckStatus>(*status);
  m.upload_id = *uid;
  m.segments_indexed = *segs;
  if (r.remaining() > 0) {
    // Trailing hint: exactly one non-zero varint, nothing after. The
    // status byte selects the meaning — node epoch for kStaleEpoch,
    // retry-after for everything else.
    const auto hint = r.get_varint();
    if (!hint || *hint == 0 || r.remaining() != 0) return std::nullopt;
    if (m.status == UploadAckStatus::kStaleEpoch) {
      m.node_epoch = *hint - 1;
    } else {
      m.retry_after_ms = *hint;
    }
  }
  return m;
}

// --- query ------------------------------------------------------------------

std::vector<std::uint8_t> encode_query(const QueryMessage& m) {
  ByteWriter w;
  w.put_u8(kMsgQuery);
  w.put_svarint(m.t_start);
  w.put_varint(static_cast<std::uint64_t>(m.t_end - m.t_start));
  w.put_svarint(quantize_deg(m.center.lat));
  w.put_svarint(quantize_deg(m.center.lng));
  w.put_varint(static_cast<std::uint64_t>(std::llround(m.radius_m)));
  w.put_varint(m.top_n);
  return w.take();
}

std::optional<QueryMessage> decode_query(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  const auto tag = r.get_u8();
  if (!tag || *tag != kMsgQuery) return std::nullopt;
  const auto ts = r.get_svarint();
  const auto dur = r.get_varint();
  const auto lat = r.get_svarint();
  const auto lng = r.get_svarint();
  const auto radius = r.get_varint();
  const auto top_n = r.get_varint();
  if (!ts || !dur || !lat || !lng || !radius || !top_n) return std::nullopt;
  QueryMessage m;
  m.t_start = *ts;
  if (__builtin_add_overflow(*ts, static_cast<std::int64_t>(*dur),
                             &m.t_end)) {
    return std::nullopt;
  }
  m.center.lat = dequantize_deg(*lat);
  m.center.lng = dequantize_deg(*lng);
  m.radius_m = static_cast<double>(*radius);
  m.top_n = static_cast<std::uint32_t>(*top_n);
  return m;
}

// --- results ----------------------------------------------------------------

std::vector<std::uint8_t> encode_results(const ResultsMessage& m) {
  ByteWriter w;
  w.put_u8(kMsgResults);
  w.put_varint(m.entries.size());
  for (const auto& e : m.entries) {
    w.put_varint(e.video_id);
    w.put_varint(e.segment_id);
    w.put_svarint(e.t_start);
    w.put_varint(static_cast<std::uint64_t>(e.t_end - e.t_start));
    w.put_varint(static_cast<std::uint64_t>(
        std::llround(static_cast<double>(e.distance_m) * 10.0)));
  }
  return w.take();
}

std::optional<ResultsMessage> decode_results(
    std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  const auto tag = r.get_u8();
  if (!tag || *tag != kMsgResults) return std::nullopt;
  const auto count = r.get_varint();
  if (!count) return std::nullopt;
  ResultsMessage m;
  for (std::uint64_t i = 0; i < *count; ++i) {
    const auto vid = r.get_varint();
    const auto sid = r.get_varint();
    const auto ts = r.get_svarint();
    const auto dur = r.get_varint();
    const auto dist = r.get_varint();
    if (!vid || !sid || !ts || !dur || !dist) return std::nullopt;
    ResultEntry e;
    e.video_id = *vid;
    e.segment_id = static_cast<std::uint32_t>(*sid);
    e.t_start = *ts;
    if (__builtin_add_overflow(*ts, static_cast<std::int64_t>(*dur),
                               &e.t_end)) {
      return std::nullopt;
    }
    e.distance_m = static_cast<float>(static_cast<double>(*dist) / 10.0);
    m.entries.push_back(e);
  }
  return m;
}

}  // namespace svg::net
