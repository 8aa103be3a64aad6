// Byte-exact wire codec for client updates (DESIGN.md §7).
//
// Everything the simulator previously *estimated* (compress/encoding.h
// formulas) this subsystem *measures*: a WireEncoder serializes exactly the
// payload a client would transmit — versioned frame header, auto-picked
// position encodings (raw u32 / delta-varint / bitmap for top-k supports;
// bitmap / run-length for masks), and fp32 or per-chunk-scaled bit-packed
// quantized values — and a WireDecoder parses it back, handing aggregation
// ready-made SparseDeltas. Under RunConfig::wire = kEncoded the engines
// price `buffer.size()` of real encodes instead of analytic formulas.
//
// Update frame layout (all integers little-endian, varints are LEB128):
//
//   Frame    := magic u16 (0x4757 "GW") | version u8 (=1) | nsections u8
//               | dim varint | Section*
//   Section  := tag u8 | body            (each tag appears at most once)
//     tag 0  dense   body := ValueBlock(dim)
//     tag 1  shared  body := mask_id u32 | count varint | ValueBlock(count)
//     tag 2  unique  body := count varint | IndexBlock(count)
//                            | ValueBlock(count)
//     tag 3  stats   body := count varint | fp32 * count
//
//   IndexBlock(n) := kind u8 | payload    (encoder picks the smallest)
//     kind 0  raw u32 * n
//     kind 1  delta-varint: varint(idx[0]), varint(idx[i] - idx[i-1])...
//     kind 2  bitmap, ceil(dim/8) bytes, bit i of byte i/8 (LSB first)
//
//   ValueBlock(n) := bits u8 | payload
//     bits 32      raw fp32 * n
//     bits 1..16   chunks of 256 values; each chunk is max_abs fp32
//                  followed by ceil(c*bits/8) bit-packed levels.
//                  Decode contract (bit-exact, mirrored by
//                  quantize_values): levels = 2^bits - 1,
//                  scale = 2*max_abs/levels, value = level*scale - max_abs.
//
// Standalone mask frames (shared mask M_t, APF's active set, the
// SyncTracker stale-position union) use a smaller header:
//
//   MaskFrame := kind u8 | dim varint | payload
//     kind 0  bitmap (as IndexBlock kind 2)
//     kind 1  run-length: alternating varint run lengths, zeros first
//             (the leading zeros-run may be 0), summing to dim
//
// Versioning rules: `version` bumps on ANY layout change; decoders reject
// unknown versions/magic/tags/kinds loudly (CheckError) rather than guess.
// Framing overhead is bounded by kMaxFrameOverhead bytes per frame, which
// is the "documented header overhead" the analytic estimates must stay
// within (tests/test_wire.cpp pins this down).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "agg/sparse_delta.h"
#include "common/rng.h"
#include "compress/bitmask.h"
#include "compress/topk.h"

namespace gluefl::wire {

inline constexpr uint16_t kMagic = 0x4757;  // "GW"
inline constexpr uint8_t kVersion = 1;
inline constexpr size_t kValueChunk = 256;

/// Upper bound on non-payload bytes per frame: frame header (magic,
/// version, section count, dim varint <= 9) plus per-section tags, counts,
/// kind/bits bytes and the shared-section mask id.
inline constexpr size_t kMaxFrameOverhead = 32;

/// FNV-1a over an ascending support. Shared sections embed it so a decoder
/// can verify the values align with the cohort mask both sides hold.
uint32_t support_id(const std::vector<uint32_t>& idx);

/// In-place per-chunk stochastic quantization — exactly the transform the
/// encoder applies to a ValueBlock at `bits` < 32 (chunked max-abs scales,
/// unbiased stochastic rounding, dequantized write-back). Exposed so tests
/// can compute the reference vector with an identically-seeded Rng.
/// bits == 32 is the identity.
void quantize_values(float* x, size_t n, int bits, Rng& rng);

/// Exact wire size of a ValueBlock for n values (includes the bits byte).
size_t value_block_bytes(size_t n, int bits);

/// Scale-chunked quantized payload bytes WITHOUT framing: bit-packed levels
/// plus one fp32 scale per kValueChunk values. UniformQuantizer::
/// payload_bytes delegates here so analytic sizes match real encodings.
size_t quantized_values_bytes(size_t n, int bits);

// ---- standalone mask codec ----

std::vector<uint8_t> encode_mask(const BitMask& m);
BitMask decode_mask(const uint8_t* data, size_t size);

/// Measured size of a mask frame: the same run walk as encode_mask,
/// without materializing the buffer (downlink pricing calls this once per
/// distinct staleness per round).
size_t encoded_mask_bytes(const BitMask& m);

/// Measured size of the server->client sync frame: the encoded
/// stale-position mask plus an fp32 ValueBlock carrying the new values.
/// 0 when nothing is stale (the client is current).
size_t encoded_sync_bytes(const BitMask& stale);

/// Measured size of a dense fp32 stats frame (tag + count + raw values).
size_t encoded_stats_bytes(size_t stat_dim);

// ---- update frames ----

class WireEncoder {
 public:
  /// `value_bits` 32 = raw fp32 (the strategies' default — decode is the
  /// identity); 1..16 = per-chunk quantization, which needs `rng` for the
  /// stochastic rounding draws.
  explicit WireEncoder(size_t dim, int value_bits = 32, Rng* rng = nullptr);

  /// Sections encode eagerly in call order; each may be added once.
  void add_dense(const float* v, size_t n);  // n must equal dim
  void add_shared(const float* v, size_t n, uint32_t mask_id);
  void add_unique(const std::vector<uint32_t>& idx,
                  const std::vector<float>& val);
  void add_unique(const SparseVec& sv) { add_unique(sv.idx, sv.val); }
  void add_stats(const float* v, size_t n);  // stats are never quantized

  /// Finalizes the header and returns the frame. The encoder is spent.
  std::vector<uint8_t> finish();

 private:
  void value_block(const float* v, size_t n);

  size_t dim_;
  int value_bits_;
  Rng* rng_;
  uint8_t nsections_ = 0;
  uint8_t seen_tags_ = 0;  // bit i set = tag i already added
  // Telemetry: the encode span runs ctor -> finish() (telemetry.h
  // span_begin/span_end; both fields are dead when tracing is off).
  bool traced_ = false;
  double trace_t0_us_ = 0.0;
  std::vector<uint8_t> buf_;
};

class WireDecoder {
 public:
  /// Parses and validates the whole frame up front; throws CheckError on
  /// truncated / malformed / version-mismatched input. `expect_dim` pins
  /// the model dimension both sides must agree on.
  WireDecoder(const uint8_t* data, size_t size, size_t expect_dim);

  bool has_dense() const { return has_dense_; }
  bool has_shared() const { return has_shared_; }
  bool has_unique() const { return has_unique_; }
  bool has_stats() const { return has_stats_; }

  /// Each take_* may be called once and moves the decoded section out,
  /// handing aggregation a ready-made SparseDelta.
  SparseDelta take_dense(float weight);
  /// `support` is the cohort index array both sides hold; its length and
  /// support_id must match what the encoder embedded. Pass the cohort's
  /// precomputed id as `expected_id` to make the check O(1) — strategies
  /// hash the support once per round, not once per client frame; when
  /// omitted the id is recomputed from `support`.
  SparseDelta take_shared(
      std::shared_ptr<const std::vector<uint32_t>> support, float weight,
      const uint32_t* expected_id = nullptr);
  SparseDelta take_unique(float weight);
  std::vector<float> take_stats();

 private:
  size_t dim_ = 0;
  bool has_dense_ = false, has_shared_ = false;
  bool has_unique_ = false, has_stats_ = false;
  uint32_t mask_id_ = 0;
  std::vector<float> dense_, shared_vals_, stats_;
  SparseVec unique_;
};

}  // namespace gluefl::wire
