// Dependency-free per-column codecs for WSPCHK02 spill chunk files.
//
// Every column element has a canonical uint64 form (bit pattern for signed
// types, underlying value for enums — lossless both ways), and each column
// is stored with one of three schemes, chosen per column by encoded size:
//
//   kRaw    — the original fixed-width array bytes (always available).
//   kDelta  — zigzag(varint) of consecutive differences; near-free for
//             monotone columns (tstart/tend) and offset runs.
//   kRle    — (varint run-length, varint value) pairs; collapses
//             low-cardinality columns (app/iface/op/fs) to almost nothing.
//
// Encoding is one pass to size both payloads (a varint's length follows
// from the value's bit width) and one pass to write the winner straight
// into the caller's buffer. Decoding writes straight into the typed column.
//
// Decoders are defensive: they validate against the expected row count and
// buffer bounds, reject varints longer than 10 bytes or wider than 64 bits
// and values that do not fit the column type, and throw util::SimError on
// any malformed input, so a corrupt chunk file fails loudly instead of
// mis-decoding.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <type_traits>

#include "util/error.hpp"

namespace wasp::analysis::codec {

enum class Encoding : std::uint8_t { kRaw = 0, kDelta = 1, kRle = 2 };

/// Longest LEB128 encoding of a uint64.
constexpr std::size_t kMaxVarintBytes = 10;

namespace detail {
template <typename T, bool = std::is_enum_v<T>>
struct Unsigned {
  static_assert(std::is_integral_v<T>);
  using type = std::make_unsigned_t<T>;
};
template <typename T>
struct Unsigned<T, true> {
  using type = std::make_unsigned_t<std::underlying_type_t<T>>;
};
}  // namespace detail

/// The same-width unsigned type a column element's bits live in.
template <typename T>
using Unsigned = typename detail::Unsigned<T>::type;

/// Widen a column element to its canonical uint64 representation: enums go
/// through their underlying type, signed integers through the same-width
/// unsigned type (two's complement bit pattern), so narrow(widen(v)) == v.
template <typename T>
constexpr std::uint64_t widen(T v) noexcept {
  if constexpr (std::is_enum_v<T>) {
    return static_cast<std::uint64_t>(
        static_cast<Unsigned<T>>(static_cast<std::underlying_type_t<T>>(v)));
  } else {
    return static_cast<std::uint64_t>(static_cast<Unsigned<T>>(v));
  }
}

template <typename T>
constexpr T narrow(std::uint64_t u) noexcept {
  if constexpr (std::is_enum_v<T>) {
    return static_cast<T>(
        static_cast<std::underlying_type_t<T>>(static_cast<Unsigned<T>>(u)));
  } else {
    return static_cast<T>(static_cast<Unsigned<T>>(u));
  }
}

/// Bits of a canonical value that no element of T can produce; a decoded
/// value with any of them set does not fit the column.
template <typename T>
constexpr std::uint64_t kOutOfRangeBits =
    ~static_cast<std::uint64_t>(std::numeric_limits<Unsigned<T>>::max());

/// Encoded length of a LEB128 varint: one byte per started 7 bits.
constexpr std::size_t varint_size(std::uint64_t v) noexcept {
  return 1 + (static_cast<std::size_t>(std::bit_width(v | 1)) - 1) / 7;
}

/// Write v at p (room for varint_size(v) bytes); returns the end.
inline std::uint8_t* put_varint(std::uint8_t* p, std::uint64_t v) noexcept {
  while (v >= 0x80) {
    *p++ = static_cast<std::uint8_t>(v) | 0x80;
    v >>= 7;
  }
  *p++ = static_cast<std::uint8_t>(v);
  return p;
}

/// Bounds-checked read: throws SimError past `end`, on a >10-byte encoding,
/// or when the 10th byte carries bits past 64.
std::uint64_t get_varint(const std::uint8_t*& p, const std::uint8_t* end);

/// Unchecked fast path: the caller guarantees kMaxVarintBytes readable
/// bytes at p. Rejects the same overlong/overflowing encodings.
inline std::uint64_t get_varint_unchecked(const std::uint8_t*& p) {
  std::uint64_t b = *p++;
  if (b < 0x80) return b;
  std::uint64_t v = b & 0x7f;
  for (unsigned shift = 7; shift < 63; shift += 7) {
    b = *p++;
    v |= (b & 0x7f) << shift;
    if (b < 0x80) return v;
  }
  b = *p++;
  WASP_CHECK_MSG(b <= 1, "varint longer than 10 bytes or wider than 64 bits");
  return v | (b << 63);
}

inline std::uint64_t get_varint_any(const std::uint8_t*& p,
                                    const std::uint8_t* end) {
  return end - p >= static_cast<std::ptrdiff_t>(kMaxVarintBytes)
             ? get_varint_unchecked(p)
             : get_varint(p, end);
}

constexpr std::uint64_t zigzag(std::int64_t v) noexcept {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}
constexpr std::int64_t unzigzag(std::uint64_t u) noexcept {
  return static_cast<std::int64_t>(u >> 1) ^
         -static_cast<std::int64_t>(u & 1);
}

struct EncodedSizes {
  std::size_t delta = 0;
  std::size_t rle = 0;
};

/// One pass over a column: the exact kDelta and kRle payload sizes. Equal
/// neighbours are a zero delta (one byte each) and extend the RLE run.
template <typename T>
EncodedSizes encoded_sizes(const T* vals, std::size_t n) noexcept {
  EncodedSizes s;
  std::uint64_t prev = 0;
  std::size_t i = 0;
  while (i < n) {
    const std::uint64_t v = widen(vals[i]);
    std::size_t run = 1;
    while (i + run < n && vals[i + run] == vals[i]) ++run;
    s.delta += varint_size(zigzag(static_cast<std::int64_t>(v - prev))) +
               (run - 1);
    s.rle += varint_size(run) + varint_size(v);
    prev = v;
    i += run;
  }
  return s;
}

struct Choice {
  Encoding enc = Encoding::kRaw;
  std::size_t bytes = 0;  ///< payload bytes
};

/// The smallest of raw, delta and RLE; a tie keeps the earlier of the three.
template <typename T>
Choice choose_encoding(const T* vals, std::size_t n) noexcept {
  const EncodedSizes s = encoded_sizes(vals, n);
  Choice c{Encoding::kRaw, n * sizeof(T)};
  if (s.delta < c.bytes) c = {Encoding::kDelta, s.delta};
  if (s.rle < c.bytes) c = {Encoding::kRle, s.rle};
  return c;
}

/// Write n values as zigzag varints of wrapping consecutive deltas (first
/// delta is against 0) at out, which has room for encoded_sizes().delta
/// bytes. Returns the end.
template <typename T>
std::uint8_t* encode_delta(const T* vals, std::size_t n,
                           std::uint8_t* out) noexcept {
  std::uint64_t prev = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t v = widen(vals[i]);
    // Wrapping difference, zigzagged so small moves in either direction
    // stay short.
    out = put_varint(out, zigzag(static_cast<std::int64_t>(v - prev)));
    prev = v;
  }
  return out;
}

/// Write n values as (run length, value) varint pairs at out, which has
/// room for encoded_sizes().rle bytes. Returns the end.
template <typename T>
std::uint8_t* encode_rle(const T* vals, std::size_t n,
                         std::uint8_t* out) noexcept {
  std::size_t i = 0;
  while (i < n) {
    std::size_t run = 1;
    while (i + run < n && vals[i + run] == vals[i]) ++run;
    out = put_varint(out, run);
    out = put_varint(out, widen(vals[i]));
    i += run;
  }
  return out;
}

/// Decode exactly n values into out; throws SimError on truncation,
/// overrun, trailing bytes, or a value that does not fit T.
template <typename T>
void decode_delta(const std::uint8_t* data, std::size_t len, T* out,
                  std::size_t n) {
  const std::uint8_t* p = data;
  const std::uint8_t* const end = data + len;
  std::uint64_t prev = 0;
  std::uint64_t seen = 0;  // OR of every decoded value, range-checked once
  std::size_t i = 0;
  for (; i < n && end - p >= static_cast<std::ptrdiff_t>(kMaxVarintBytes);
       ++i) {
    prev += static_cast<std::uint64_t>(unzigzag(get_varint_unchecked(p)));
    seen |= prev;
    out[i] = narrow<T>(prev);
  }
  for (; i < n; ++i) {
    prev += static_cast<std::uint64_t>(unzigzag(get_varint(p, end)));
    seen |= prev;
    out[i] = narrow<T>(prev);
  }
  WASP_CHECK_MSG(p == end, "delta column has trailing bytes");
  WASP_CHECK_MSG((seen & kOutOfRangeBits<T>) == 0,
                 "delta column value out of range for its type");
}

template <typename T>
void decode_rle(const std::uint8_t* data, std::size_t len, T* out,
                std::size_t n) {
  const std::uint8_t* p = data;
  const std::uint8_t* const end = data + len;
  std::size_t produced = 0;
  while (produced < n) {
    const std::uint64_t run = get_varint_any(p, end);
    WASP_CHECK_MSG(run > 0 && run <= n - produced,
                   "RLE run length out of range");
    const std::uint64_t v = get_varint_any(p, end);
    WASP_CHECK_MSG((v & kOutOfRangeBits<T>) == 0,
                   "RLE column value out of range for its type");
    std::fill_n(out + produced, run, narrow<T>(v));
    produced += run;
  }
  WASP_CHECK_MSG(p == end, "RLE column has trailing bytes");
}

/// Upper bound on a well-formed kDelta/kRle payload for n rows — used to
/// reject absurd lengths from corrupt chunk headers before allocating.
constexpr std::uint64_t max_encoded_bytes(std::uint64_t n) noexcept {
  return 16 + 11 * n;
}

}  // namespace wasp::analysis::codec
