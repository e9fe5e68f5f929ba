// Minimal little-endian wire format helpers for the journal codec, plus
// the CRC-32 (IEEE 802.3) used to checksum every on-disk frame.
// Header-only and dependency-free so the persist library and its tests can
// use them without extra linkage.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace crowdsky::persist {

/// CRC-32 (reflected polynomial 0xEDB88320) over `data`.
inline uint32_t Crc32(const void* data, size_t size) {
  static const auto table = [] {
    struct Table {
      uint32_t entries[256];
    } t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      }
      t.entries[i] = c;
    }
    return t;
  }();
  uint32_t crc = 0xFFFFFFFFu;
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    crc = table.entries[(crc ^ p[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

inline uint32_t Crc32(std::string_view data) {
  return Crc32(data.data(), data.size());
}

/// Appends fixed-width little-endian fields to a byte buffer.
class ByteWriter {
 public:
  void PutU8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void PutU32(uint32_t v) { PutLe(&v, sizeof v); }
  void PutU64(uint64_t v) { PutLe(&v, sizeof v); }
  void PutI32(int32_t v) { PutU32(static_cast<uint32_t>(v)); }
  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }
  void PutF64(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    PutU64(bits);
  }

  const std::string& str() const { return buf_; }
  std::string Take() { return std::move(buf_); }

 private:
  void PutLe(const void* v, size_t size) {
    // The toolchains this library targets are little-endian; memcpy of the
    // native representation is the little-endian encoding.
    buf_.append(static_cast<const char*>(v), size);
  }

  std::string buf_;
};

/// Reads fixed-width little-endian fields; any out-of-bounds read poisons
/// the reader (ok() goes false and every later Get returns 0).
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  uint8_t GetU8() {
    uint8_t v = 0;
    GetLe(&v, sizeof v);
    return v;
  }
  uint32_t GetU32() {
    uint32_t v = 0;
    GetLe(&v, sizeof v);
    return v;
  }
  uint64_t GetU64() {
    uint64_t v = 0;
    GetLe(&v, sizeof v);
    return v;
  }
  int32_t GetI32() { return static_cast<int32_t>(GetU32()); }
  int64_t GetI64() { return static_cast<int64_t>(GetU64()); }
  double GetF64() {
    const uint64_t bits = GetU64();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }

  bool ok() const { return ok_; }
  /// True iff every byte was consumed and no read went out of bounds.
  bool exhausted() const { return ok_ && pos_ == data_.size(); }

 private:
  void GetLe(void* out, size_t size) {
    if (!ok_ || data_.size() - pos_ < size) {
      ok_ = false;
      return;
    }
    std::memcpy(out, data_.data() + pos_, size);
    pos_ += size;
  }

  std::string_view data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace crowdsky::persist
