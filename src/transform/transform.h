/**
 * @file
 * Reversible preconditioner stages for pipeline codecs.
 *
 * tudocomp (PAPERS.md) shows compression pipelines composed from small
 * reversible transforms in front of a terminal coder; the fleet's
 * ratio/speed menu widens the same way here. Each stage maps bytes to
 * bytes with an exact inverse and wraps its output in a tiny framed
 * header (tag byte + varint raw size) so a pipeline decoder can
 * validate what it is about to undo — a tampered stage header is
 * corruptData, never a wild allocation (the claimed size is checked
 * against the body before any reserve).
 *
 * Stages (spec-string names in parentheses, DESIGN.md §15):
 *  - delta ("delta"): byte-wise previous-byte delta, zig-zag mapped so
 *    small +/- differences land on small byte values.
 *  - rle ("rle"): packbits-style run-length coding — literal runs of
 *    up to 128 bytes, repeat runs of 3..130.
 *  - mtf ("mtf"): move-to-front over the 256-byte alphabet.
 *  - bwt ("bwt"): Burrows-Wheeler transform of cyclic rotations,
 *    suffix-array (prefix-doubling) sort, framed in 64 KiB blocks with
 *    a per-block primary index.
 *  - shred ("shred"): struct-of-arrays shredder — fixed 8-byte records
 *    split into per-byte planes (trailing partial record kept raw).
 */

#ifndef CDPU_TRANSFORM_TRANSFORM_H_
#define CDPU_TRANSFORM_TRANSFORM_H_

#include <array>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/types.h"

namespace cdpu::transform
{

/** Every transform stage. Values are wire tags (low nibble of the
 *  framed header's tag byte), so the order is format-stable. */
enum class StageId : u8
{
    delta = 0,
    rle = 1,
    mtf = 2,
    bwt = 3,
    shred = 4,
};

inline constexpr std::size_t kNumStages = 5;

/** BWT block framing granularity: each block sorts independently, so
 *  decode parallelism and memory stay bounded regardless of input
 *  size. */
inline constexpr std::size_t kBwtBlockBytes = 64 * kKiB;

/** All stages, in enum order. */
const std::vector<StageId> &allStages();

/** Stable lowercase spec-string name ("delta", "rle", ...). */
std::string stageName(StageId stage);

/** Resolves a spec-string token back to its stage. */
Result<StageId> stageFromName(const std::string &name);

/**
 * Analytic expansion bound of one stage in the caps form: encoded
 * size never exceeds raw * num / den + slop. Pipelines multiply these
 * per-stage fractions into their composed CodecCaps (DESIGN.md §15).
 */
struct StageExpansion
{
    u64 num = 1;
    u64 den = 1;
    std::size_t slop = 0;
};

StageExpansion stageExpansion(StageId stage);

/** Exact upper bound on apply()'s output (header included) for
 *  @p raw_size input bytes — the functional form pipelines chain into
 *  their maxCompressedSize. */
std::size_t maxEncodedSize(StageId stage, std::size_t raw_size);

/**
 * Applies @p stage to @p input, replacing @p out with the framed
 * encoding: [tag u8][varint rawSize][body]. Never fails on legal
 * input (any byte string is legal); Status is kept for uniformity
 * with the codec entry points.
 */
Status apply(StageId stage, ByteSpan input, Bytes &out);

/**
 * Inverts a framed stage encoding, replacing @p out with the original
 * bytes. Fails with corruptData when the tag does not match @p stage,
 * the claimed raw size is inconsistent with the body or over
 * @p max_output_bytes, or the body itself is malformed (BWT primary
 * index out of range, RLE stream over/underrunning its claim). The
 * claimed size is validated against the limit and the body's analytic
 * decode bound before any allocation.
 */
Status invert(StageId stage, ByteSpan input, Bytes &out,
              u64 max_output_bytes = kMaxDecodedBytes);

/**
 * Per-stage wall-time and byte attribution, thread-local and
 * cumulative like mem::kernelStats(): benches snapshot before the
 * timed loop and diff after, so a pipeline's headline number can be
 * broken down into `transform.<stage>.ns` counters (bench honesty —
 * a pipeline win must be attributable to its stages, not noise).
 */
struct StageStats
{
    std::array<u64, kNumStages> applyNs{};
    std::array<u64, kNumStages> applyBytes{};
    std::array<u64, kNumStages> invertNs{};
    std::array<u64, kNumStages> invertBytes{};

    /** This snapshot minus @p before, field-wise. */
    StageStats diff(const StageStats &before) const;
};

/** The calling thread's cumulative stage stats. */
const StageStats &stageStats();

} // namespace cdpu::transform

#endif // CDPU_TRANSFORM_TRANSFORM_H_
