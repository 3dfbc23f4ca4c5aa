// Unit tests for the WSPCHK02 per-column codecs: widen/narrow round trips
// across signed and enum types, varint/zigzag edge values, delta and RLE
// encode/decode, defensive rejection of corrupt payloads, and a randomized
// differential check of the one-pass typed codec against a naive reference
// (widen, per-byte push_back, checked decode) kept here as the oracle.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <optional>
#include <random>
#include <vector>

#include "analysis/chunk_codec.hpp"
#include "trace/record.hpp"
#include "util/error.hpp"

namespace wasp::analysis::codec {
namespace {

// ---- Reference codec (the oracle) -----------------------------------------

namespace ref {

void put_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

std::uint64_t get_varint(const std::uint8_t*& p, const std::uint8_t* end) {
  std::uint64_t v = 0;
  for (unsigned shift = 0; shift < 64; shift += 7) {
    if (p >= end) throw util::SimError("ref: truncated varint");
    const std::uint8_t b = *p++;
    if (shift == 63 && b > 1) throw util::SimError("ref: varint overflow");
    v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) return v;
  }
  throw util::SimError("ref: overlong varint");
}

template <typename T>
std::vector<std::uint8_t> encode_delta(const std::vector<T>& col) {
  std::vector<std::uint8_t> out;
  std::uint64_t prev = 0;
  for (const T x : col) {
    const std::uint64_t v = widen(x);
    put_varint(out, zigzag(static_cast<std::int64_t>(v - prev)));
    prev = v;
  }
  return out;
}

template <typename T>
std::vector<std::uint8_t> encode_rle(const std::vector<T>& col) {
  std::vector<std::uint8_t> out;
  std::size_t i = 0;
  while (i < col.size()) {
    std::size_t run = 1;
    while (i + run < col.size() && col[i + run] == col[i]) ++run;
    put_varint(out, run);
    put_varint(out, widen(col[i]));
    i += run;
  }
  return out;
}

template <typename T>
Choice choose(const std::vector<T>& col) {
  Choice c{Encoding::kRaw, col.size() * sizeof(T)};
  const std::size_t delta = encode_delta(col).size();
  const std::size_t rle = encode_rle(col).size();
  if (delta < c.bytes) c = {Encoding::kDelta, delta};
  if (rle < c.bytes) c = {Encoding::kRle, rle};
  return c;
}

template <typename T>
T checked_narrow(std::uint64_t u) {
  if (widen(narrow<T>(u)) != u) throw util::SimError("ref: out of range");
  return narrow<T>(u);
}

template <typename T>
std::vector<T> decode_delta(const std::vector<std::uint8_t>& in,
                            std::size_t n) {
  const std::uint8_t* p = in.data();
  const std::uint8_t* end = in.data() + in.size();
  std::vector<T> out;
  std::uint64_t prev = 0;
  for (std::size_t i = 0; i < n; ++i) {
    prev += static_cast<std::uint64_t>(unzigzag(get_varint(p, end)));
    out.push_back(checked_narrow<T>(prev));
  }
  if (p != end) throw util::SimError("ref: trailing bytes");
  return out;
}

template <typename T>
std::vector<T> decode_rle(const std::vector<std::uint8_t>& in,
                          std::size_t n) {
  const std::uint8_t* p = in.data();
  const std::uint8_t* end = in.data() + in.size();
  std::vector<T> out;
  while (out.size() < n) {
    const std::uint64_t run = get_varint(p, end);
    if (run == 0 || run > n - out.size()) {
      throw util::SimError("ref: bad run");
    }
    const T v = checked_narrow<T>(get_varint(p, end));
    out.insert(out.end(), run, v);
  }
  if (p != end) throw util::SimError("ref: trailing bytes");
  return out;
}

}  // namespace ref

// ---- Helpers over the typed codec ------------------------------------------

template <typename T>
std::vector<std::uint8_t> delta_bytes(const std::vector<T>& col) {
  std::vector<std::uint8_t> out(encoded_sizes(col.data(), col.size()).delta);
  const std::uint8_t* end = encode_delta(col.data(), col.size(), out.data());
  EXPECT_EQ(end, out.data() + out.size());
  return out;
}

template <typename T>
std::vector<std::uint8_t> rle_bytes(const std::vector<T>& col) {
  std::vector<std::uint8_t> out(encoded_sizes(col.data(), col.size()).rle);
  const std::uint8_t* end = encode_rle(col.data(), col.size(), out.data());
  EXPECT_EQ(end, out.data() + out.size());
  return out;
}

std::vector<std::uint8_t> varint_bytes(std::uint64_t v) {
  std::vector<std::uint8_t> out(varint_size(v));
  EXPECT_EQ(put_varint(out.data(), v), out.data() + out.size());
  return out;
}

TEST(ChunkCodec, WidenNarrowRoundTripsSignedAndEnums) {
  for (std::int32_t v : {0, 1, -1, 42, -12345,
                         std::numeric_limits<std::int32_t>::min(),
                         std::numeric_limits<std::int32_t>::max()}) {
    EXPECT_EQ(narrow<std::int32_t>(widen(v)), v);
  }
  for (std::int16_t v : {std::int16_t{-1}, std::int16_t{0}, std::int16_t{7},
                         std::numeric_limits<std::int16_t>::min()}) {
    EXPECT_EQ(narrow<std::int16_t>(widen(v)), v);
  }
  for (std::uint64_t v : {std::uint64_t{0}, std::uint64_t{1},
                          std::numeric_limits<std::uint64_t>::max()}) {
    EXPECT_EQ(narrow<std::uint64_t>(widen(v)), v);
  }
  EXPECT_EQ(narrow<trace::Op>(widen(trace::Op::kWrite)), trace::Op::kWrite);
  EXPECT_EQ(narrow<trace::Iface>(widen(trace::Iface::kMpiio)),
            trace::Iface::kMpiio);
  // Negative values widen to their bit pattern, never truncate.
  EXPECT_EQ(widen(std::int16_t{-1}), 0xffffull);
  EXPECT_EQ(widen(std::int32_t{-1}), 0xffffffffull);
}

TEST(ChunkCodec, VarintRoundTripsEdgeValues) {
  const std::uint64_t cases[] = {0,   1,    127,        128,
                                 255, 300,  16383,      16384,
                                 (1ull << 32) - 1,      1ull << 32,
                                 std::numeric_limits<std::uint64_t>::max()};
  std::vector<std::uint8_t> buf;
  for (std::uint64_t v : cases) {
    const auto one = varint_bytes(v);
    EXPECT_EQ(one, [v] {
      std::vector<std::uint8_t> r;
      ref::put_varint(r, v);
      return r;
    }());
    buf.insert(buf.end(), one.begin(), one.end());
  }
  const std::uint8_t* p = buf.data();
  const std::uint8_t* end = buf.data() + buf.size();
  for (std::uint64_t v : cases) {
    EXPECT_EQ(get_varint(p, end), v);
  }
  EXPECT_EQ(p, end);
  // The unchecked path reads the same values given kMaxVarintBytes slack.
  buf.resize(buf.size() + kMaxVarintBytes, 0);
  p = buf.data();
  for (std::uint64_t v : cases) {
    EXPECT_EQ(get_varint_unchecked(p), v);
  }
  EXPECT_EQ(p, end);
  // One byte per value <= 127, ten bytes at the top end.
  EXPECT_EQ(varint_size(127), 1u);
  EXPECT_EQ(varint_size(128), 2u);
  EXPECT_EQ(varint_size(std::numeric_limits<std::uint64_t>::max()), 10u);
  EXPECT_EQ(varint_bytes(127).size(), 1u);
  EXPECT_EQ(varint_bytes(std::numeric_limits<std::uint64_t>::max()).size(),
            10u);
}

TEST(ChunkCodec, VarintRejectsTruncationAndOverlongEncodings) {
  const auto buf = varint_bytes(1ull << 40);  // multi-byte
  for (std::size_t cut = 0; cut < buf.size(); ++cut) {
    const std::uint8_t* p = buf.data();
    EXPECT_THROW(get_varint(p, p + cut), util::SimError) << "cut " << cut;
  }
  // Eleven continuation bytes can never be a valid 64-bit varint.
  const std::vector<std::uint8_t> overlong(11, 0x80);
  const std::uint8_t* p = overlong.data();
  EXPECT_THROW(get_varint(p, p + overlong.size()), util::SimError);
  p = overlong.data();
  EXPECT_THROW(get_varint_unchecked(p), util::SimError);
  // A 10th byte above 1 carries bits past 64: rejected, not truncated.
  std::vector<std::uint8_t> wide(9, 0xff);
  wide.push_back(0x7f);
  p = wide.data();
  EXPECT_THROW(get_varint(p, p + wide.size()), util::SimError);
  p = wide.data();
  EXPECT_THROW(get_varint_unchecked(p), util::SimError);
  // ...while 0x01 there is exactly the top bit.
  wide.back() = 0x01;
  p = wide.data();
  EXPECT_EQ(get_varint(p, p + wide.size()),
            std::numeric_limits<std::uint64_t>::max());
  p = wide.data();
  EXPECT_EQ(get_varint_unchecked(p),
            std::numeric_limits<std::uint64_t>::max());
}

TEST(ChunkCodec, ZigzagOrdersSmallMagnitudesFirst) {
  EXPECT_EQ(zigzag(0), 0u);
  EXPECT_EQ(zigzag(-1), 1u);
  EXPECT_EQ(zigzag(1), 2u);
  EXPECT_EQ(zigzag(-2), 3u);
  for (std::int64_t v : {std::int64_t{0}, std::int64_t{-1}, std::int64_t{1},
                         std::numeric_limits<std::int64_t>::min(),
                         std::numeric_limits<std::int64_t>::max()}) {
    EXPECT_EQ(unzigzag(zigzag(v)), v);
  }
}

TEST(ChunkCodec, DeltaRoundTripsAndCompressesMonotoneColumns) {
  // A monotone "tstart"-like column with small steps.
  std::vector<std::uint64_t> vals;
  std::uint64_t t = 1ull << 50;
  for (int i = 0; i < 1000; ++i) {
    t += 17 + static_cast<std::uint64_t>(i % 5);
    vals.push_back(t);
  }
  const auto enc = delta_bytes(vals);
  // ~2 bytes/value after the first: far below the 8-byte raw footprint.
  EXPECT_LT(enc.size(), vals.size() * 3);
  EXPECT_EQ(choose_encoding(vals.data(), vals.size()).enc, Encoding::kDelta);
  std::vector<std::uint64_t> out(vals.size());
  decode_delta(enc.data(), enc.size(), out.data(), out.size());
  EXPECT_EQ(out, vals);
}

TEST(ChunkCodec, DeltaHandlesWrapAndExtremes) {
  const std::vector<std::uint64_t> vals = {
      std::numeric_limits<std::uint64_t>::max(), 0, 5,
      std::numeric_limits<std::uint64_t>::max(), 1, 1};
  const auto enc = delta_bytes(vals);
  std::vector<std::uint64_t> out(vals.size());
  decode_delta(enc.data(), enc.size(), out.data(), out.size());
  EXPECT_EQ(out, vals);
}

TEST(ChunkCodec, DeltaRejectsTruncatedAndTrailingPayloads) {
  const std::vector<std::uint64_t> vals = {10, 20, 30, 40};
  const auto enc = delta_bytes(vals);
  std::vector<std::uint64_t> out(vals.size());
  // Truncated: fewer bytes than values.
  EXPECT_THROW(decode_delta(enc.data(), enc.size() - 1, out.data(), 4),
               util::SimError);
  // Trailing garbage after the expected count.
  auto padded = enc;
  padded.push_back(0);
  EXPECT_THROW(decode_delta(padded.data(), padded.size(), out.data(), 4),
               util::SimError);
}

TEST(ChunkCodec, RleRoundTripsAndCollapsesRuns) {
  std::vector<std::uint64_t> vals(5000, 3);
  for (std::size_t i = 2000; i < 3000; ++i) vals[i] = 7;
  const auto enc = rle_bytes(vals);
  EXPECT_LT(enc.size(), 16u);  // three (run, value) pairs
  EXPECT_EQ(choose_encoding(vals.data(), vals.size()).enc, Encoding::kRle);
  std::vector<std::uint64_t> out(vals.size());
  decode_rle(enc.data(), enc.size(), out.data(), out.size());
  EXPECT_EQ(out, vals);

  // Worst case (no runs) still round-trips.
  std::vector<std::uint64_t> mixed;
  for (std::uint64_t i = 0; i < 257; ++i) mixed.push_back(i * 1315423911u);
  const auto enc2 = rle_bytes(mixed);
  std::vector<std::uint64_t> out2(mixed.size());
  decode_rle(enc2.data(), enc2.size(), out2.data(), out2.size());
  EXPECT_EQ(out2, mixed);
}

TEST(ChunkCodec, RleRejectsMalformedRuns) {
  std::vector<std::uint64_t> out(10);
  const auto pairs = [](std::uint64_t run, std::uint64_t v) {
    auto b = varint_bytes(run);
    const auto value = varint_bytes(v);
    b.insert(b.end(), value.begin(), value.end());
    return b;
  };
  // Run length 0 is never produced by the encoder.
  const auto zero_run = pairs(0, 42);
  EXPECT_THROW(decode_rle(zero_run.data(), zero_run.size(), out.data(), 10),
               util::SimError);
  // Run overflowing the expected row count.
  const auto too_long = pairs(11, 42);
  EXPECT_THROW(decode_rle(too_long.data(), too_long.size(), out.data(), 10),
               util::SimError);
  // Payload ends before producing all rows.
  const auto short_payload = pairs(4, 42);
  EXPECT_THROW(
      decode_rle(short_payload.data(), short_payload.size(), out.data(), 10),
      util::SimError);
}

TEST(ChunkCodec, DecodeRejectsValuesOutsideTheColumnType) {
  // 70000 does not fit a uint16 column: rejected, not loaded as 4464.
  std::vector<std::uint8_t> rle = varint_bytes(3);
  const auto big = varint_bytes(70000);
  rle.insert(rle.end(), big.begin(), big.end());
  std::vector<std::uint16_t> u16(3);
  EXPECT_THROW(decode_rle(rle.data(), rle.size(), u16.data(), 3),
               util::SimError);
  std::vector<std::uint64_t> u64(3);
  decode_rle(rle.data(), rle.size(), u64.data(), 3);
  EXPECT_EQ(u64, (std::vector<std::uint64_t>{70000, 70000, 70000}));

  const std::vector<std::uint64_t> wide = {1, 70000, 2};
  const auto delta = delta_bytes(wide);
  EXPECT_THROW(decode_delta(delta.data(), delta.size(), u16.data(), 3),
               util::SimError);
  // A signed column's canonical form is its same-width bit pattern: 0xffff
  // is int16 -1, 0x10000 fits no int16.
  const std::vector<std::uint64_t> pattern = {0xffff};
  std::vector<std::int16_t> i16(1);
  const auto ok = delta_bytes(pattern);
  decode_delta(ok.data(), ok.size(), i16.data(), 1);
  EXPECT_EQ(i16[0], -1);
  const std::vector<std::uint64_t> over = {0x10000};
  const auto bad = delta_bytes(over);
  EXPECT_THROW(decode_delta(bad.data(), bad.size(), i16.data(), 1),
               util::SimError);
  // Enums are range-checked through their underlying type.
  std::vector<trace::Op> ops(3);
  EXPECT_THROW(decode_rle(rle.data(), rle.size(), ops.data(), 3),
               util::SimError);
}

// ---- Randomized differential against the reference --------------------------

/// A column with a random mix of segments: constant runs, runs of two, small
/// steps either way, and full-width noise, so every encoding wins somewhere
/// and ties occur.
template <typename T>
std::vector<T> random_column(std::mt19937_64& rng, std::size_t n) {
  std::vector<T> col;
  std::uint64_t v = rng();
  while (col.size() < n) {
    const std::size_t len = 1 + rng() % 40;
    const unsigned mode = rng() % 4;
    for (std::size_t k = 0; k < len && col.size() < n; ++k) {
      switch (mode) {
        case 0: break;                                  // constant run
        case 1: if (k % 2 == 0) v = rng() % 200; break;  // runs of two
        case 2: v += (rng() % 9) - 4; break;             // small steps
        default: v = rng(); break;                       // noise
      }
      col.push_back(narrow<T>(v));
    }
  }
  return col;
}

template <typename T>
void expect_encoder_matches_reference(std::mt19937_64& rng) {
  for (int iter = 0; iter < 60; ++iter) {
    const std::size_t n = rng() % 300;
    const auto col = random_column<T>(rng, n);
    const auto want_delta = ref::encode_delta(col);
    const auto want_rle = ref::encode_rle(col);
    const EncodedSizes sizes = encoded_sizes(col.data(), n);
    ASSERT_EQ(sizes.delta, want_delta.size());
    ASSERT_EQ(sizes.rle, want_rle.size());
    ASSERT_EQ(delta_bytes(col), want_delta);
    ASSERT_EQ(rle_bytes(col), want_rle);
    const Choice got = choose_encoding(col.data(), n);
    const Choice want = ref::choose(col);
    ASSERT_EQ(got.enc, want.enc);
    ASSERT_EQ(got.bytes, want.bytes);
    std::vector<T> out(n);
    decode_delta(want_delta.data(), want_delta.size(), out.data(), n);
    ASSERT_EQ(out, col);
    decode_rle(want_rle.data(), want_rle.size(), out.data(), n);
    ASSERT_EQ(out, col);
  }
}

TEST(ChunkCodec, EncoderMatchesReferenceOnRandomColumns) {
  std::mt19937_64 rng(20261017);
  expect_encoder_matches_reference<std::uint16_t>(rng);
  expect_encoder_matches_reference<std::int16_t>(rng);
  expect_encoder_matches_reference<std::int32_t>(rng);
  expect_encoder_matches_reference<std::uint32_t>(rng);
  expect_encoder_matches_reference<std::uint64_t>(rng);
  expect_encoder_matches_reference<trace::Iface>(rng);
  expect_encoder_matches_reference<trace::Op>(rng);
}

/// Runs `decode` and returns its column, or nullopt if it threw SimError.
template <typename T, typename Decode>
std::optional<std::vector<T>> try_decode(Decode decode) {
  try {
    return decode();
  } catch (const util::SimError&) {
    return std::nullopt;
  }
}

template <typename T>
void expect_decoder_matches_reference(std::mt19937_64& rng, int& rejected,
                                      int& accepted) {
  for (int iter = 0; iter < 150; ++iter) {
    const std::size_t n = 1 + rng() % 120;
    const bool delta = rng() % 2 == 0;
    const auto col = random_column<std::uint64_t>(rng, n);
    std::vector<std::uint8_t> payload =
        delta ? ref::encode_delta(col) : ref::encode_rle(col);
    // Mutate: flip bytes, truncate, extend, or start from pure noise.
    switch (rng() % 4) {
      case 0:
        for (int k = 0, m = 1 + rng() % 3; k < m && !payload.empty(); ++k) {
          payload[rng() % payload.size()] = static_cast<std::uint8_t>(rng());
        }
        break;
      case 1: payload.resize(rng() % (payload.size() + 1)); break;
      case 2: payload.push_back(static_cast<std::uint8_t>(rng())); break;
      default:
        payload.resize(rng() % 64);
        for (auto& b : payload) b = static_cast<std::uint8_t>(rng());
        break;
    }
    const std::size_t rows = n - rng() % 2;  // sometimes one row short
    const auto got = try_decode<T>([&] {
      std::vector<T> out(rows);
      if (delta) {
        decode_delta(payload.data(), payload.size(), out.data(), rows);
      } else {
        decode_rle(payload.data(), payload.size(), out.data(), rows);
      }
      return out;
    });
    const auto want = try_decode<T>([&] {
      return delta ? ref::decode_delta<T>(payload, rows)
                   : ref::decode_rle<T>(payload, rows);
    });
    ASSERT_EQ(got.has_value(), want.has_value()) << "iteration " << iter;
    if (got) {
      ASSERT_EQ(*got, *want) << "iteration " << iter;
      ++accepted;
    } else {
      ++rejected;
    }
  }
}

TEST(ChunkCodec, DecoderMatchesReferenceOnMutatedPayloads) {
  std::mt19937_64 rng(7);
  int rejected = 0, accepted = 0;
  expect_decoder_matches_reference<std::uint64_t>(rng, rejected, accepted);
  expect_decoder_matches_reference<std::uint32_t>(rng, rejected, accepted);
  expect_decoder_matches_reference<std::int16_t>(rng, rejected, accepted);
  expect_decoder_matches_reference<trace::Op>(rng, rejected, accepted);
  // Both outcomes were exercised.
  EXPECT_GT(rejected, 0);
  EXPECT_GT(accepted, 0);
}

}  // namespace
}  // namespace wasp::analysis::codec
