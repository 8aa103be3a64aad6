#include "wire/codec.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>

#include "common/check.h"
#include "telemetry/telemetry.h"
#include "wire/kernels.h"

namespace gluefl::wire {

namespace {

/// Per-kernel value counters: the quantized ValueBlock transform is the
/// only path that goes through a dispatched kernel, so fp32 blocks are
/// not attributed to any kernel (their bytes still land in
/// wire.encode.bytes / wire.decode.bytes).
telemetry::MetricId encode_values_metric() {
  switch (active_kernel_kind()) {
    case KernelKind::kSse:
      return telemetry::kWireEncodeValuesSse;
    case KernelKind::kAvx2:
      return telemetry::kWireEncodeValuesAvx2;
    case KernelKind::kPortable:
      break;
  }
  return telemetry::kWireEncodeValuesPortable;
}

telemetry::MetricId decode_values_metric() {
  switch (active_kernel_kind()) {
    case KernelKind::kSse:
      return telemetry::kWireDecodeValuesSse;
    case KernelKind::kAvx2:
      return telemetry::kWireDecodeValuesAvx2;
    case KernelKind::kPortable:
      break;
  }
  return telemetry::kWireDecodeValuesPortable;
}

}  // namespace

namespace {

// Section tags / encoding kinds (see the header's layout spec).
constexpr uint8_t kTagDense = 0;
constexpr uint8_t kTagShared = 1;
constexpr uint8_t kTagUnique = 2;
constexpr uint8_t kTagStats = 3;
constexpr uint8_t kIdxRaw32 = 0;
constexpr uint8_t kIdxDeltaVarint = 1;
constexpr uint8_t kIdxBitmap = 2;
constexpr uint8_t kMaskBitmap = 0;
constexpr uint8_t kMaskRle = 1;

void put_u16(std::vector<uint8_t>& out, uint16_t v) {
  out.push_back(static_cast<uint8_t>(v & 0xff));
  out.push_back(static_cast<uint8_t>(v >> 8));
}

void put_u32(std::vector<uint8_t>& out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void put_varint(std::vector<uint8_t>& out, uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<uint8_t>(v));
}

size_t varint_bytes(uint64_t v) {
  size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

/// Bounds-checked reader over a frame; every decoder below goes through it
/// so malformed input fails as CheckError, never as out-of-bounds reads.
struct Cursor {
  const uint8_t* p;
  size_t left;

  void need(size_t n) const {
    GLUEFL_CHECK_MSG(n <= left, "wire: truncated buffer");
  }
  uint8_t u8() {
    need(1);
    --left;
    return *p++;
  }
  uint16_t u16() {
    need(2);
    const uint16_t v = static_cast<uint16_t>(p[0] | (p[1] << 8));
    p += 2;
    left -= 2;
    return v;
  }
  uint32_t u32() {
    need(4);
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(p[i]) << (8 * i);
    p += 4;
    left -= 4;
    return v;
  }
  float f32() {
    const uint32_t bits = u32();
    float v;
    std::memcpy(&v, &bits, 4);
    return v;
  }
  uint64_t varint() {
    uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      const uint8_t b = u8();
      // The 10th byte reaches shift 63, where only its lowest bit fits in
      // a u64 — higher payload bits would be silently shifted out, making
      // an out-of-range varint alias to a small value. Reject instead.
      GLUEFL_CHECK_MSG(shift < 63 || (b & 0x7e) == 0,
                       "wire: varint overflows 64 bits");
      v |= static_cast<uint64_t>(b & 0x7f) << shift;
      if ((b & 0x80) == 0) return v;
    }
    GLUEFL_CHECK_MSG(false, "wire: varint overflows 64 bits");
    __builtin_unreachable();
  }
  const uint8_t* bytes(size_t n) {
    need(n);
    const uint8_t* q = p;
    p += n;
    left -= n;
    return q;
  }
};

size_t bitmap_bytes(size_t dim) { return (dim + 7) / 8; }

void put_bitmap(std::vector<uint8_t>& out, const BitMask& m) {
  const size_t nb = bitmap_bytes(m.size());
  const size_t start = out.size();
  out.resize(start + nb, 0);
  m.for_each_set([&out, start](size_t i) {
    out[start + i / 8] |= static_cast<uint8_t>(1u << (i % 8));
  });
}

/// Decodes a ValueBlock of n values into out (resized). The per-chunk
/// unpack + dequantize runs on the dispatched kernel (kernels.h); levels
/// are masked to `bits` bits while unpacking, so they cannot exceed the
/// 2^bits - 1 grid by construction and need no per-level range check.
void read_value_block(Cursor& c, size_t n, std::vector<float>& out) {
  const int bits = c.u8();
  GLUEFL_CHECK_MSG(bits == 32 || (bits >= 1 && bits <= 16),
                   "wire: bad ValueBlock bit width");
  if (telemetry::enabled() && bits != 32) {
    telemetry::count(decode_values_metric(), n);
  }
  out.resize(n);
  if (bits == 32) {
    const uint8_t* raw = c.bytes(n * 4);
    if (n > 0) std::memcpy(out.data(), raw, n * 4);
    return;
  }
  const CodecKernel& kernel = active_kernel();
  for (size_t base = 0; base < n; base += kValueChunk) {
    const size_t cn = std::min(kValueChunk, n - base);
    const float max_abs = c.f32();
    GLUEFL_CHECK_MSG(std::isfinite(max_abs) && max_abs >= 0.0f,
                     "wire: bad chunk scale");
    const uint8_t* packed = c.bytes((cn * static_cast<size_t>(bits) + 7) / 8);
    kernel.decode_chunk(packed, cn, bits, max_abs, out.data() + base);
  }
}

// ---- batched delta-varint position decode ----

/// Byte lengths of the complete varints inside an 8-byte window, keyed on
/// the window's eight continuation bits.
struct VarintWindow {
  uint8_t count;   // complete varints in the window (<= 4 tracked)
  uint8_t len[4];  // their byte lengths, in order
};

constexpr std::array<VarintWindow, 256> make_varint_window_table() {
  std::array<VarintWindow, 256> table{};
  for (int key = 0; key < 256; ++key) {
    VarintWindow e{};
    int pos = 0;
    while (e.count < 4) {
      int end = pos;  // advance to the first byte with its MSB clear
      while (end < 8 && ((key >> end) & 1) != 0) ++end;
      if (end >= 8) break;  // this varint runs past the window
      e.len[e.count++] = static_cast<uint8_t>(end - pos + 1);
      pos = end + 1;
    }
    table[key] = e;
  }
  return table;
}

/// Decodes n ascending positions from delta varints. Top-k gaps average
/// dim/k, so deltas are overwhelmingly 1-byte varints: the decoder reads
/// an 8-byte window and either emits eight 1-byte deltas unrolled (no
/// continuation bit set) or walks the 256-entry length table above for
/// up to 4 complete varints per window. Varints completing inside a
/// window carry <= 56 payload bits, so the u64 accumulation cannot
/// overflow; longer ones (only hostile frames — valid deltas are < dim)
/// and the last few positions fall back to the overflow-checked
/// Cursor::varint reference, preserving its exact error behavior.
void decode_delta_positions(Cursor& c, size_t n, size_t dim,
                            uint32_t* out) {
  static constexpr std::array<VarintWindow, 256> kWindows =
      make_varint_window_table();
  constexpr uint64_t kContBits = 0x8080808080808080ULL;
  // Multiplying the masked continuation bits by this constant gathers
  // them into the top byte (the sums of the contributing bit positions
  // are collision-free, so no carries corrupt the key).
  constexpr uint64_t kMsbGather = 0x0002040810204081ULL;
  uint64_t pos = 0;
  size_t i = 0;
  while (n - i >= 8 && c.left >= 8) {
    uint64_t w;
    std::memcpy(&w, c.p, 8);
    if ((w & kContBits) == 0) {
      for (int j = 0; j < 8; ++j) {
        const uint64_t d = (w >> (8 * j)) & 0x7f;
        pos = (i + j == 0) ? d : pos + d;
        GLUEFL_CHECK_MSG(pos < dim, "wire: unique index out of range");
        out[i + j] = static_cast<uint32_t>(pos);
      }
      c.p += 8;
      c.left -= 8;
      i += 8;
      continue;
    }
    const uint8_t key =
        static_cast<uint8_t>(((w & kContBits) * kMsbGather) >> 56);
    const VarintWindow& e = kWindows[key];
    if (e.count == 0) break;  // >= 8-byte varint: take the checked path
    size_t off = 0;
    for (size_t j = 0; j < e.count; ++j) {
      uint64_t d = 0;
      for (int b = 0; b < e.len[j]; ++b) {
        d |= ((w >> (8 * (off + b))) & 0x7f) << (7 * b);
      }
      off += e.len[j];
      pos = (i + j == 0) ? d : pos + d;
      GLUEFL_CHECK_MSG(pos < dim, "wire: unique index out of range");
      out[i + j] = static_cast<uint32_t>(pos);
    }
    c.p += off;
    c.left -= off;
    i += e.count;
  }
  for (; i < n; ++i) {
    const uint64_t d = c.varint();
    pos = (i == 0) ? d : pos + d;
    GLUEFL_CHECK_MSG(pos < dim, "wire: unique index out of range");
    out[i] = static_cast<uint32_t>(pos);
  }
}

}  // namespace

uint32_t support_id(const std::vector<uint32_t>& idx) {
  uint32_t h = 2166136261u;
  for (const uint32_t v : idx) {
    for (int i = 0; i < 4; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 16777619u;
    }
  }
  return h;
}

void quantize_values(float* x, size_t n, int bits, Rng& rng) {
  GLUEFL_CHECK(bits == 32 || (bits >= 1 && bits <= 16));
  if (bits == 32) return;
  const CodecKernel& kernel = active_kernel();
  for (size_t base = 0; base < n; base += kValueChunk) {
    const size_t cn = std::min(kValueChunk, n - base);
    kernel.encode_chunk(x + base, cn, bits, rng, nullptr, x + base);
  }
}

size_t value_block_bytes(size_t n, int bits) {
  GLUEFL_CHECK(bits == 32 || (bits >= 1 && bits <= 16));
  if (bits == 32) return 1 + n * 4;
  return 1 + quantized_values_bytes(n, bits);
}

size_t quantized_values_bytes(size_t n, int bits) {
  GLUEFL_CHECK(bits >= 1 && bits <= 16);
  if (n == 0) return 0;
  const size_t chunks = (n + kValueChunk - 1) / kValueChunk;
  return (n * static_cast<size_t>(bits) + 7) / 8 + 4 * chunks;
}

namespace {

/// Alternating run lengths of the mask, zeros first (the leading zeros
/// run may be 0), summing to dim. ONE walk shared by the encoder and the
/// size-only query so the two can never drift apart.
std::vector<uint64_t> mask_runs(const BitMask& m) {
  std::vector<uint64_t> runs;
  size_t prev = 0;  // one past the end of the last one-run
  bool first = true;
  size_t run_start = 0;
  size_t last = 0;
  m.for_each_set([&](size_t i) {
    if (first || i != last + 1) {
      if (!first) {
        runs.push_back(last + 1 - run_start);  // close one-run
        prev = last + 1;
      }
      runs.push_back(i - prev);  // zero gap
      run_start = i;
      first = false;
    }
    last = i;
  });
  if (!first) {
    runs.push_back(last + 1 - run_start);
    prev = last + 1;
  }
  if (prev < m.size()) runs.push_back(m.size() - prev);  // trailing zeros
  return runs;
}

size_t rle_payload_bytes(const std::vector<uint64_t>& runs) {
  size_t b = 0;
  for (const uint64_t r : runs) b += varint_bytes(r);
  return b;
}

}  // namespace

std::vector<uint8_t> encode_mask(const BitMask& m) {
  const size_t dim = m.size();
  const std::vector<uint64_t> runs = mask_runs(m);
  const size_t rle = rle_payload_bytes(runs);
  const size_t bmp = bitmap_bytes(dim);

  std::vector<uint8_t> out;
  out.reserve(1 + varint_bytes(dim) + std::min(rle, bmp));
  if (rle < bmp) {
    out.push_back(kMaskRle);
    put_varint(out, dim);
    for (const uint64_t r : runs) put_varint(out, r);
  } else {
    out.push_back(kMaskBitmap);
    put_varint(out, dim);
    put_bitmap(out, m);
  }
  return out;
}

BitMask decode_mask(const uint8_t* data, size_t size) {
  Cursor c{data, size};
  const uint8_t kind = c.u8();
  const uint64_t dim = c.varint();
  // Bound the untrusted dim BEFORE allocating: parameter indices are u32
  // everywhere in the system and no proxy comes near 2^28 positions, so a
  // hostile varint fails as CheckError (and a corrupted-but-passing one
  // costs at most a 32 MB transient bitmask, not an OOM). Bitmap payloads
  // must additionally fit the buffer.
  GLUEFL_CHECK_MSG(dim <= uint64_t{1} << 28,
                   "wire: mask dim exceeds supported range");
  if (kind == kMaskBitmap) c.need(bitmap_bytes(dim));
  BitMask m(static_cast<size_t>(dim));
  if (kind == kMaskBitmap) {
    const uint8_t* raw = c.bytes(bitmap_bytes(dim));
    for (size_t i = 0; i < dim; ++i) {
      if ((raw[i / 8] >> (i % 8)) & 1) m.set(i);
    }
  } else if (kind == kMaskRle) {
    size_t pos = 0;
    bool ones = false;
    while (pos < dim) {
      const uint64_t run = c.varint();
      GLUEFL_CHECK_MSG(run <= dim - pos, "wire: mask runs exceed dim");
      if (ones) {
        for (size_t i = 0; i < run; ++i) m.set(pos + i);
      }
      pos += static_cast<size_t>(run);
      ones = !ones;
    }
  } else {
    GLUEFL_CHECK_MSG(false, "wire: unknown mask encoding kind");
  }
  GLUEFL_CHECK_MSG(c.left == 0, "wire: trailing bytes after mask frame");
  return m;
}

size_t encoded_mask_bytes(const BitMask& m) {
  // Size-only: same run walk as encode_mask, no buffer materialized (this
  // is the downlink-pricing hot path, once per distinct staleness/round).
  // The run-length histogram is recorded HERE and not in encode_mask:
  // pricing happens a sim-deterministic number of times per round, while
  // encode_mask is also reached from checkpoint serialization, whose call
  // count differs between an uninterrupted and a resumed run (the
  // sim-class byte-identity contract, DESIGN.md §10).
  const std::vector<uint64_t> runs = mask_runs(m);
  if (telemetry::enabled()) {
    telemetry::count(telemetry::kMaskFrames);
    for (const uint64_t r : runs) {
      telemetry::hist_mask_run(static_cast<uint32_t>(
          std::min<uint64_t>(r, 0xffffffffu)));
    }
  }
  return 1 + varint_bytes(m.size()) +
         std::min(rle_payload_bytes(runs), bitmap_bytes(m.size()));
}

size_t encoded_sync_bytes(const BitMask& stale) {
  const size_t nnz = stale.count();
  if (nnz == 0) return 0;
  return encoded_mask_bytes(stale) + value_block_bytes(nnz, 32);
}

size_t encoded_stats_bytes(size_t stat_dim) {
  return 1 + varint_bytes(stat_dim) + stat_dim * 4;
}

// ---- WireEncoder ----

WireEncoder::WireEncoder(size_t dim, int value_bits, Rng* rng)
    : dim_(dim), value_bits_(value_bits), rng_(rng) {
  GLUEFL_CHECK(value_bits == 32 || (value_bits >= 1 && value_bits <= 16));
  GLUEFL_CHECK_MSG(value_bits == 32 || rng != nullptr,
                   "wire: quantized encoding needs an Rng");
  traced_ = telemetry::span_begin(&trace_t0_us_);
  // Header; nsections_ is patched into byte 3 by finish().
  put_u16(buf_, kMagic);
  buf_.push_back(kVersion);
  buf_.push_back(0);
  put_varint(buf_, dim_);
}

void WireEncoder::value_block(const float* v, size_t n) {
  if (telemetry::enabled() && value_bits_ != 32) {
    telemetry::count(encode_values_metric(), n);
  }
  buf_.push_back(static_cast<uint8_t>(value_bits_));
  if (value_bits_ == 32) {
    const size_t start = buf_.size();
    buf_.resize(start + n * 4);
    // An empty block may come with v == nullptr (an empty vector's data()).
    if (n > 0) std::memcpy(buf_.data() + start, v, n * 4);
    return;
  }
  // The kernel packs straight into the frame buffer (resized up front per
  // chunk) — no chunk copy, no per-byte push_back.
  const CodecKernel& kernel = active_kernel();
  for (size_t base = 0; base < n; base += kValueChunk) {
    const size_t cn = std::min(kValueChunk, n - base);
    const size_t nb = (cn * static_cast<size_t>(value_bits_) + 7) / 8;
    const size_t start = buf_.size();
    buf_.resize(start + 4 + nb);
    const float max_abs = kernel.encode_chunk(
        v + base, cn, value_bits_, *rng_, buf_.data() + start + 4, nullptr);
    uint32_t bits;
    std::memcpy(&bits, &max_abs, 4);
    for (int b = 0; b < 4; ++b) {
      buf_[start + b] = static_cast<uint8_t>(bits >> (8 * b));
    }
  }
}

void WireEncoder::add_dense(const float* v, size_t n) {
  GLUEFL_CHECK_MSG(n == dim_, "wire: dense section must carry dim values");
  GLUEFL_CHECK_MSG((seen_tags_ & (1u << kTagDense)) == 0,
                   "wire: duplicate dense section");
  seen_tags_ |= 1u << kTagDense;
  ++nsections_;
  buf_.push_back(kTagDense);
  value_block(v, n);
}

void WireEncoder::add_shared(const float* v, size_t n, uint32_t mask_id) {
  GLUEFL_CHECK_MSG(n <= dim_, "wire: shared section larger than dim");
  GLUEFL_CHECK_MSG((seen_tags_ & (1u << kTagShared)) == 0,
                   "wire: duplicate shared section");
  seen_tags_ |= 1u << kTagShared;
  ++nsections_;
  buf_.push_back(kTagShared);
  put_u32(buf_, mask_id);
  put_varint(buf_, n);
  value_block(v, n);
}

void WireEncoder::add_unique(const std::vector<uint32_t>& idx,
                             const std::vector<float>& val) {
  GLUEFL_CHECK(idx.size() == val.size());
  GLUEFL_CHECK_MSG(idx.empty() || idx.back() < dim_,
                   "wire: unique index out of range");
  GLUEFL_CHECK_MSG((seen_tags_ & (1u << kTagUnique)) == 0,
                   "wire: duplicate unique section");
  seen_tags_ |= 1u << kTagUnique;
  ++nsections_;
  buf_.push_back(kTagUnique);
  const size_t n = idx.size();
  put_varint(buf_, n);

  // Pick the smallest of the three position encodings — the analytic
  // accounting's kAuto (min of bitmap / raw u32) is therefore always an
  // upper bound on the measured position bytes.
  size_t dv = 0;
  uint32_t prev = 0;
  for (size_t i = 0; i < n; ++i) {
    dv += varint_bytes(i == 0 ? idx[0] : idx[i] - prev);
    prev = idx[i];
  }
  const size_t raw = n * 4;
  const size_t bmp = bitmap_bytes(dim_);
  if (n > 0 && dv <= raw && dv <= bmp) {
    buf_.push_back(kIdxDeltaVarint);
    prev = 0;
    for (size_t i = 0; i < n; ++i) {
      put_varint(buf_, i == 0 ? idx[0] : idx[i] - prev);
      prev = idx[i];
    }
  } else if (raw <= bmp) {
    buf_.push_back(kIdxRaw32);
    for (const uint32_t v : idx) put_u32(buf_, v);
  } else {
    buf_.push_back(kIdxBitmap);
    put_bitmap(buf_, BitMask::from_indices(dim_, idx));
  }
  value_block(val.data(), n);
}

void WireEncoder::add_stats(const float* v, size_t n) {
  GLUEFL_CHECK_MSG((seen_tags_ & (1u << kTagStats)) == 0,
                   "wire: duplicate stats section");
  seen_tags_ |= 1u << kTagStats;
  ++nsections_;
  buf_.push_back(kTagStats);
  put_varint(buf_, n);
  const size_t start = buf_.size();
  buf_.resize(start + n * 4);
  if (n > 0) std::memcpy(buf_.data() + start, v, n * 4);
}

std::vector<uint8_t> WireEncoder::finish() {
  GLUEFL_CHECK_MSG(nsections_ > 0, "wire: frame has no sections");
  buf_[3] = nsections_;
  telemetry::count(telemetry::kWireEncodeFrames);
  telemetry::count(telemetry::kWireEncodeBytes, buf_.size());
  if (traced_) {
    telemetry::span_end("wire.encode", trace_t0_us_);
    traced_ = false;
  }
  return std::move(buf_);
}

// ---- WireDecoder ----

WireDecoder::WireDecoder(const uint8_t* data, size_t size,
                         size_t expect_dim) {
  telemetry::Span span("wire.decode");  // the ctor parses the whole frame
  telemetry::count(telemetry::kWireDecodeFrames);
  telemetry::count(telemetry::kWireDecodeBytes, size);
  Cursor c{data, size};
  GLUEFL_CHECK_MSG(c.u16() == kMagic, "wire: bad magic");
  GLUEFL_CHECK_MSG(c.u8() == kVersion, "wire: unsupported version");
  const uint8_t nsections = c.u8();
  GLUEFL_CHECK_MSG(nsections > 0, "wire: frame has no sections");
  dim_ = static_cast<size_t>(c.varint());
  GLUEFL_CHECK_MSG(dim_ == expect_dim, "wire: frame dim mismatch");

  for (uint8_t s = 0; s < nsections; ++s) {
    const uint8_t tag = c.u8();
    switch (tag) {
      case kTagDense: {
        GLUEFL_CHECK_MSG(!has_dense_, "wire: duplicate dense section");
        read_value_block(c, dim_, dense_);
        has_dense_ = true;
        break;
      }
      case kTagShared: {
        GLUEFL_CHECK_MSG(!has_shared_, "wire: duplicate shared section");
        mask_id_ = c.u32();
        const uint64_t n = c.varint();
        GLUEFL_CHECK_MSG(n <= dim_, "wire: shared count exceeds dim");
        read_value_block(c, static_cast<size_t>(n), shared_vals_);
        has_shared_ = true;
        break;
      }
      case kTagUnique: {
        GLUEFL_CHECK_MSG(!has_unique_, "wire: duplicate unique section");
        const uint64_t n64 = c.varint();
        GLUEFL_CHECK_MSG(n64 <= dim_, "wire: unique count exceeds dim");
        const size_t n = static_cast<size_t>(n64);
        unique_.idx.resize(n);
        const uint8_t kind = c.u8();
        if (kind == kIdxRaw32) {
          for (size_t i = 0; i < n; ++i) unique_.idx[i] = c.u32();
        } else if (kind == kIdxDeltaVarint) {
          decode_delta_positions(c, n, dim_, unique_.idx.data());
        } else if (kind == kIdxBitmap) {
          const uint8_t* raw = c.bytes(bitmap_bytes(dim_));
          size_t k = 0;
          // Scan the WHOLE bitmap: a popcount above the declared count is
          // rejected, not silently truncated to the first n set bits.
          for (size_t i = 0; i < dim_; ++i) {
            if ((raw[i / 8] >> (i % 8)) & 1) {
              GLUEFL_CHECK_MSG(k < n,
                               "wire: bitmap popcount != unique count");
              unique_.idx[k++] = static_cast<uint32_t>(i);
            }
          }
          GLUEFL_CHECK_MSG(k == n, "wire: bitmap popcount != unique count");
        } else {
          GLUEFL_CHECK_MSG(false, "wire: unknown index encoding kind");
        }
        for (size_t i = 1; i < n; ++i) {
          GLUEFL_CHECK_MSG(unique_.idx[i - 1] < unique_.idx[i],
                           "wire: unique indices must ascend");
        }
        // Ascending + bounded back() bounds every index (covers kIdxRaw32,
        // whose elements are otherwise unvalidated).
        GLUEFL_CHECK_MSG(n == 0 || unique_.idx[n - 1] < dim_,
                         "wire: unique index out of range");
        read_value_block(c, n, unique_.val);
        has_unique_ = true;
        break;
      }
      case kTagStats: {
        GLUEFL_CHECK_MSG(!has_stats_, "wire: duplicate stats section");
        const uint64_t n = c.varint();
        GLUEFL_CHECK_MSG(n <= c.left / 4, "wire: truncated stats section");
        stats_.resize(static_cast<size_t>(n));
        const uint8_t* raw = c.bytes(static_cast<size_t>(n) * 4);
        if (n > 0) std::memcpy(stats_.data(), raw, static_cast<size_t>(n) * 4);
        has_stats_ = true;
        break;
      }
      default:
        GLUEFL_CHECK_MSG(false, "wire: unknown section tag");
    }
  }
  GLUEFL_CHECK_MSG(c.left == 0, "wire: trailing bytes after frame");
}

SparseDelta WireDecoder::take_dense(float weight) {
  GLUEFL_CHECK_MSG(has_dense_, "wire: no dense section to take");
  has_dense_ = false;
  return SparseDelta::dense(std::move(dense_), weight);
}

SparseDelta WireDecoder::take_shared(
    std::shared_ptr<const std::vector<uint32_t>> support, float weight,
    const uint32_t* expected_id) {
  GLUEFL_CHECK_MSG(has_shared_, "wire: no shared section to take");
  GLUEFL_CHECK(support != nullptr);
  GLUEFL_CHECK_MSG(support->size() == shared_vals_.size(),
                   "wire: shared count != cohort support size");
  GLUEFL_CHECK_MSG(
      (expected_id != nullptr ? *expected_id : support_id(*support)) ==
          mask_id_,
      "wire: shared mask id mismatch");
  has_shared_ = false;
  return SparseDelta::on_shared(std::move(support), std::move(shared_vals_),
                                weight);
}

SparseDelta WireDecoder::take_unique(float weight) {
  GLUEFL_CHECK_MSG(has_unique_, "wire: no unique section to take");
  has_unique_ = false;
  return SparseDelta::from_sparse(std::move(unique_), weight);
}

std::vector<float> WireDecoder::take_stats() {
  GLUEFL_CHECK_MSG(has_stats_, "wire: no stats section to take");
  has_stats_ = false;
  return std::move(stats_);
}

}  // namespace gluefl::wire
