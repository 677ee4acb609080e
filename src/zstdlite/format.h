/**
 * @file
 * ZstdLite container format definitions.
 *
 * ZstdLite is this repository's heavyweight codec: structurally faithful
 * to Zstandard (RFC 8878) — LZ77 parse, Huffman-coded literals, three
 * interleaved FSE streams for (literal-length, offset, match-length)
 * codes with zstd's code/extra-bits binning — but with a simplified
 * container (varint headers, no repcodes, no dictionary). DESIGN.md §2
 * records the substitution rationale.
 *
 * Frame layout:
 *   magic "ZSL1" | u8 windowLog | varint contentSize | blocks...
 * Block:
 *   u8 header (bit0 last, bits1-2 type: 0 raw / 1 rle / 2 compressed)
 *   varint regenSize
 *   raw: regenSize bytes | rle: 1 byte | compressed: sections below
 * Compressed block:
 *   literals section:
 *     u8 mode (0 raw / 1 rle / 2 huffman) | varint litCount
 *     raw: litCount bytes | rle: 1 byte
 *     huffman: 128B packed 4-bit code lengths | varint streamBytes |
 *              stream (forward bits)
 *   sequences section:
 *     varint numSequences; if 0, done
 *     u8 modes (ll | of << 2 | ml << 4; 0 predefined / 1 dynamic)
 *     dynamic: serialized normalized counts, in ll, of, ml order
 *     varint streamBytes | stream (backward bits; see sequences.h)
 */

#ifndef CDPU_ZSTDLITE_FORMAT_H_
#define CDPU_ZSTDLITE_FORMAT_H_

#include <array>

#include "common/error.h"
#include "common/types.h"
#include "lz77/sequence.h"

namespace cdpu::zstdlite
{

inline constexpr std::array<u8, 4> kMagic = {'Z', 'S', 'L', '1'};

inline constexpr unsigned kMinWindowLog = 10;
inline constexpr unsigned kMaxWindowLog = 27;

/** Target decompressed bytes per block; kept under the literal-length
 *  code ceiling so intra-block literal runs always fit one sequence. */
inline constexpr std::size_t kBlockTarget = 120 * kKiB;

/** Longest literal run representable by a single sequence. */
inline constexpr u32 kMaxSeqLiteralRun = 131000;

/** Longest match representable (ML code 52 at full extra bits). */
inline constexpr u32 kMaxMatchLength = 131074;

/** Shortest match ZstdLite emits (zstd's minimum). */
inline constexpr u32 kMinMatchLength = 3;

/**
 * Hard ceiling on a single block's regenerated size, enforced on
 * decode before anything is allocated. The encoder cuts a block once
 * it reaches kBlockTarget, and the last append before the cut is at
 * most one sequence (<= kMaxSeqLiteralRun literals plus a
 * <= kMaxMatchLength match) or one literal slab (<= kBlockTarget), so
 * no legal block claims more. A corrupt regenSize/litCount/seqCount
 * header therefore cannot force a multi-GiB allocation from a few
 * bytes of input — the RLE-block and literals caps derive from this
 * bound (zstd proper pins blocks at 128 KiB for the same reason).
 */
inline constexpr std::size_t kMaxBlockRegenSize =
    kBlockTarget + kMaxSeqLiteralRun + kMaxMatchLength;

enum class BlockType : u8
{
    raw = 0,
    rle = 1,
    compressed = 2,
};

enum class LiteralsMode : u8
{
    raw = 0,
    rle = 1,
    huffman = 2,
};

enum class TableMode : u8
{
    predefined = 0,
    dynamic = 1,
};

/** Alphabet sizes for the three sequence-code streams (zstd's). */
inline constexpr std::size_t kNumLLCodes = 36;
inline constexpr std::size_t kNumMLCodes = 53;
inline constexpr std::size_t kNumOFCodes = kMaxWindowLog + 1;

/** (code, extra-bit count, baseline) binning for one value domain. */
struct CodeBin
{
    u8 code = 0;
    u8 extraBits = 0;
    u32 baseline = 0;
};

/** Maps a literal length to its LL code/extra bits (zstd Table 5). */
CodeBin literalLengthBin(u32 value);
/** Maps a match length (>= 3) to its ML code/extra bits (zstd Table 7). */
CodeBin matchLengthBin(u32 value);
/** Maps an offset (>= 1) to its power-of-two OF code. */
CodeBin offsetBin(u32 value);

/**
 * Baseline + extra-bit count for a given code (decoder side).
 * @pre code < kNumLLCodes / kNumMLCodes / kNumOFCodes; the sequence
 * decoder rejects larger table alphabets before any code is looked up.
 */
CodeBin literalLengthFromCode(u8 code);
CodeBin matchLengthFromCode(u8 code);
CodeBin offsetFromCode(u8 code);

/** Frame header fields. */
struct FrameHeader
{
    unsigned windowLog = 0;
    u64 contentSize = 0;
};

/** Appends the frame header (magic + fields). */
void writeFrameHeader(const FrameHeader &header, Bytes &out);

/** Parses and validates a frame header, advancing @p pos. */
Result<FrameHeader> readFrameHeader(ByteSpan data, std::size_t &pos);

/**
 * Per-block decode/encode trace consumed by the CDPU cycle models:
 * enough to replay every hardware unit's work without re-decoding.
 */
struct BlockTrace
{
    BlockType type = BlockType::raw;
    std::size_t regenSize = 0;

    LiteralsMode literalsMode = LiteralsMode::raw;
    std::size_t litCount = 0;
    std::size_t litStreamBytes = 0;  ///< Huffman bitstream length.

    std::size_t numSequences = 0;
    std::size_t seqStreamBytes = 0;  ///< FSE bitstream length.
    bool dynamicTables = false;      ///< Any FSE table transmitted.
    std::vector<lz77::Sequence> sequences;
};

/** Whole-file trace: one entry per block. */
struct FileTrace
{
    std::vector<BlockTrace> blocks;
    std::size_t compressedSize = 0;
    std::size_t contentSize = 0;
};

} // namespace cdpu::zstdlite

#endif // CDPU_ZSTDLITE_FORMAT_H_
