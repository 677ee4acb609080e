/**
 * @file
 * Fundamental type aliases shared across the CDPU code base.
 */

#ifndef CDPU_COMMON_TYPES_H_
#define CDPU_COMMON_TYPES_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace cdpu
{

using u8 = std::uint8_t;
using u16 = std::uint16_t;
using u32 = std::uint32_t;
using u64 = std::uint64_t;
using i8 = std::int8_t;
using i16 = std::int16_t;
using i32 = std::int32_t;
using i64 = std::int64_t;

/** Owned byte buffer used for (un)compressed payloads. */
using Bytes = std::vector<u8>;

/** Non-owning view over a byte payload. */
using ByteSpan = std::span<const u8>;

/** One kibibyte, in bytes. */
inline constexpr std::size_t kKiB = 1024;
/** One mebibyte, in bytes. */
inline constexpr std::size_t kMiB = 1024 * kKiB;

/**
 * Default output limit of every decode entry point (the trailing
 * `maxOutputBytes` argument): the one place the decoded-size policy
 * lives. A frame whose claimed size exceeds the limit is corruptData,
 * rejected before anything is reserved; a compressed output over it
 * is bufferTooSmall (DESIGN.md §10).
 */
inline constexpr u64 kMaxDecodedBytes = u64{1} << 32;

} // namespace cdpu

#endif // CDPU_COMMON_TYPES_H_
