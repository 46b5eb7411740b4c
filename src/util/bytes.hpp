#pragma once
// Byte-level codec primitives shared by the wire protocol (net/wire.hpp),
// the snapshot format, and the write-ahead log (src/store/): LEB128
// varints, zigzag for signed deltas, little-endian fixed-width ints.
//
// These started life inside net/wire.hpp; they live in util so the
// durability subsystem can reuse the exact delta encoding the wire codec
// speaks without depending on the networking layer.

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

namespace svg::util {

class ByteWriter {
 public:
  ByteWriter() = default;
  /// Write into `recycled`'s storage (cleared first), so a hot encoder can
  /// reuse one buffer's capacity across messages.
  explicit ByteWriter(std::vector<std::uint8_t> recycled)
      : buf_(std::move(recycled)) {
    buf_.clear();
  }

  void put_u8(std::uint8_t v) { buf_.push_back(v); }
  void put_u16(std::uint16_t v);
  void put_u32(std::uint32_t v);
  void put_u64(std::uint64_t v);
  void put_varint(std::uint64_t v);
  void put_svarint(std::int64_t v);  ///< zigzag + varint
  void put_bytes(std::span<const std::uint8_t> bytes);

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const noexcept {
    return buf_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Reads the formats ByteWriter emits. All getters return nullopt on
/// truncated input instead of throwing — a server must survive malformed
/// uploads, and recovery must survive torn log tails.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) noexcept
      : data_(data) {}

  [[nodiscard]] std::optional<std::uint8_t> get_u8();
  [[nodiscard]] std::optional<std::uint16_t> get_u16();
  [[nodiscard]] std::optional<std::uint32_t> get_u32();
  [[nodiscard]] std::optional<std::uint64_t> get_u64();
  [[nodiscard]] std::optional<std::uint64_t> get_varint();
  [[nodiscard]] std::optional<std::int64_t> get_svarint();

  [[nodiscard]] std::size_t remaining() const noexcept {
    return data_.size() - pos_;
  }
  [[nodiscard]] std::size_t position() const noexcept { return pos_; }
  [[nodiscard]] bool exhausted() const noexcept { return pos_ >= data_.size(); }

 private:
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace svg::util
