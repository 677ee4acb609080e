/**
 * @file
 * FlateLite container format.
 *
 * FlateLite is a DEFLATE-structured codec (RFC 1951's scheme: LZ77
 * with a 32 KiB window, a combined literal/length Huffman alphabet and
 * a distance alphabet with extra bits) in a simplified container. It
 * exists to demonstrate the paper's generator-reuse claim (Section
 * 3.4): the Flate CDPU is composed from exactly the LZ77 and Huffman
 * units the Snappy/ZStd CDPUs use — "transitioning from Flate to ZStd
 * would mostly entail adding an FSE module".
 *
 * Frame: magic "ZFL1" | u8 windowLog (<= 15) | varint contentSize |
 * blocks. Block: u8 header (bit0 last, bit1 compressed) | varint
 * regenSize | raw bytes, or: packed 4-bit code lengths for the 286-
 * symbol lit/len alphabet and the 30-symbol distance alphabet |
 * varint streamBytes | forward bitstream ending in the end-of-block
 * symbol (256).
 */

#ifndef CDPU_FLATELITE_FORMAT_H_
#define CDPU_FLATELITE_FORMAT_H_

#include <array>

#include "common/error.h"
#include "common/types.h"
#include "lz77/sequence.h"

namespace cdpu::flatelite
{

inline constexpr std::array<u8, 4> kMagic = {'Z', 'F', 'L', '1'};

inline constexpr unsigned kMinWindowLog = 8;
inline constexpr unsigned kMaxWindowLog = 15; ///< RFC 1951: 32 KiB.

inline constexpr std::size_t kLitLenAlphabet = 286;
inline constexpr std::size_t kDistanceAlphabet = 30;
inline constexpr u16 kEndOfBlock = 256;

inline constexpr u32 kMinMatchLength = 3;
inline constexpr u32 kMaxMatchLength = 258;

/** Blocks regenerate about this many bytes (adaptivity granularity). */
inline constexpr std::size_t kBlockTarget = 64 * kKiB;

/** (code, extra bits, baseline) for a value domain. */
struct FlateBin
{
    u16 code = 0;
    u8 extraBits = 0;
    u32 baseline = 0;
};

/** Maps a match length (3..258) to its RFC 1951 length code. */
FlateBin lengthBin(u32 length);
/** Maps a distance (1..32768) to its RFC 1951 distance code. */
FlateBin distanceBin(u32 distance);

/** Decoder side: baseline/extra bits for a lit/len code. @pre code is
 *  257..285; the 286-symbol alphabet admits nothing larger. */
FlateBin lengthFromCode(u16 code);
/** Decoder side: baseline/extra bits for a distance code. @pre code is
 *  below kDistanceAlphabet, the distance alphabet's size. */
FlateBin distanceFromCode(u16 code);

/** Frame header fields. */
struct FrameHeader
{
    unsigned windowLog = kMaxWindowLog;
    u64 contentSize = 0;
};

void writeFrameHeader(const FrameHeader &header, Bytes &out);
Result<FrameHeader> readFrameHeader(ByteSpan data, std::size_t &pos);

/** Per-block trace for the Flate CDPU cycle model. */
struct BlockTrace
{
    bool compressed = false;
    std::size_t regenSize = 0;
    std::size_t symbolCount = 0;   ///< Huffman symbols decoded.
    std::size_t streamBytes = 0;
    std::vector<lz77::Sequence> sequences;
    std::size_t literalBytes = 0;
};

struct FileTrace
{
    std::vector<BlockTrace> blocks;
    std::size_t compressedSize = 0;
    std::size_t contentSize = 0;
};

} // namespace cdpu::flatelite

#endif // CDPU_FLATELITE_FORMAT_H_
