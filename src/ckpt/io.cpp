#include "ckpt/io.h"

#include <array>
#include <bit>
#include <cstring>
#include <string>

#include "wire/codec.h"

namespace gluefl::ckpt {

namespace {

std::array<uint32_t, 256> make_crc_table() {
  std::array<uint32_t, 256> t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[i] = c;
  }
  return t;
}

[[noreturn]] void fail(const std::string& msg) { throw CkptError(msg); }

}  // namespace

uint32_t crc32(const uint8_t* data, size_t size) {
  static const std::array<uint32_t, 256> table = make_crc_table();
  uint32_t c = 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) {
    c = table[(c ^ data[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

void Writer::u16(uint16_t v) {
  buf_.push_back(static_cast<uint8_t>(v & 0xff));
  buf_.push_back(static_cast<uint8_t>(v >> 8));
}

void Writer::u32(uint32_t v) {
  for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void Writer::u64(uint64_t v) {
  for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void Writer::varint(uint64_t v) {
  while (v >= 0x80) {
    buf_.push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  buf_.push_back(static_cast<uint8_t>(v));
}

void Writer::f32(float v) {
  uint32_t bits;
  std::memcpy(&bits, &v, 4);
  u32(bits);
}

void Writer::f64(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, 8);
  u64(bits);
}

void Writer::bytes(const uint8_t* data, size_t n) {
  buf_.insert(buf_.end(), data, data + n);
}

void Writer::str(const std::string& s) {
  varint(s.size());
  bytes(reinterpret_cast<const uint8_t*>(s.data()), s.size());
}

void Writer::blob(const std::vector<uint8_t>& b) {
  varint(b.size());
  bytes(b.data(), b.size());
}

void Writer::mask(const BitMask& m) { blob(wire::encode_mask(m)); }

void Writer::f32s(const float* v, size_t n) {
  varint(n);
  // The format is little-endian IEEE bit patterns, which on LE hosts is
  // exactly the in-memory layout — one bulk insert instead of 4n
  // push_backs (the model tensor rides this on the round-boundary hot
  // path).
  if constexpr (std::endian::native == std::endian::little) {
    const uint8_t* raw = reinterpret_cast<const uint8_t*>(v);
    buf_.insert(buf_.end(), raw, raw + n * 4);
  } else {
    for (size_t i = 0; i < n; ++i) f32(v[i]);
  }
}

void Reader::need(size_t n) const {
  if (n > left_) fail("truncated checkpoint data");
}

uint8_t Reader::u8() {
  need(1);
  --left_;
  return *p_++;
}

uint16_t Reader::u16() {
  need(2);
  const uint16_t v = static_cast<uint16_t>(p_[0] | (p_[1] << 8));
  p_ += 2;
  left_ -= 2;
  return v;
}

uint32_t Reader::u32() {
  need(4);
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(p_[i]) << (8 * i);
  p_ += 4;
  left_ -= 4;
  return v;
}

uint64_t Reader::u64() {
  need(8);
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(p_[i]) << (8 * i);
  p_ += 8;
  left_ -= 8;
  return v;
}

uint64_t Reader::varint() {
  uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    const uint8_t b = u8();
    // Same guard as the wire codec: the 10th byte only has one payload bit
    // left in a u64 — out-of-range varints must not alias to small values.
    if (shift >= 63 && (b & 0x7e) != 0) fail("varint overflows 64 bits");
    v |= static_cast<uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) return v;
  }
  fail("varint overflows 64 bits");
}

uint64_t Reader::varint_max(uint64_t max, const char* what) {
  const uint64_t v = varint();
  if (v > max) {
    fail(std::string("implausible ") + what + " in checkpoint (" +
         std::to_string(v) + " > " + std::to_string(max) + ")");
  }
  return v;
}

float Reader::f32() {
  const uint32_t bits = u32();
  float v;
  std::memcpy(&v, &bits, 4);
  return v;
}

double Reader::f64() {
  const uint64_t bits = u64();
  double v;
  std::memcpy(&v, &bits, 8);
  return v;
}

const uint8_t* Reader::bytes(size_t n) {
  need(n);
  const uint8_t* q = p_;
  p_ += n;
  left_ -= n;
  return q;
}

std::string Reader::str() {
  // A length never exceeds what is physically left, so hostile varints
  // fail before the allocation they would have sized.
  const size_t n = static_cast<size_t>(varint_max(left_, "string length"));
  const uint8_t* q = bytes(n);
  return std::string(reinterpret_cast<const char*>(q), n);
}

std::vector<uint8_t> Reader::blob() {
  const size_t n = static_cast<size_t>(varint_max(left_, "blob length"));
  const uint8_t* q = bytes(n);
  return std::vector<uint8_t>(q, q + n);
}

BitMask Reader::mask(size_t dim, const char* what) {
  const std::vector<uint8_t> buf = blob();
  BitMask m = wire::decode_mask(buf.data(), buf.size());
  if (m.size() != dim) {
    throw CkptError(std::string("checkpoint ") + what +
                    " has the wrong dim");
  }
  return m;
}

std::vector<float> Reader::f32s() {
  const size_t n =
      static_cast<size_t>(varint_max(left_ / 4, "float-array length"));
  std::vector<float> out(n);
  if constexpr (std::endian::native == std::endian::little) {
    const uint8_t* raw = bytes(n * 4);
    // An empty vector's data() may be null, and memcpy from or to null is
    // undefined even for zero bytes.
    if (n > 0) std::memcpy(out.data(), raw, n * 4);
  } else {
    for (size_t i = 0; i < n; ++i) out[i] = f32();
  }
  return out;
}

void Reader::expect_end(const char* what) const {
  if (left_ != 0) {
    fail(std::string("trailing bytes after ") + what + " section");
  }
}

}  // namespace gluefl::ckpt
